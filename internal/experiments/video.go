package experiments

import (
	"context"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

func init() {
	register(Runner{
		ID:          "fig11",
		Description: "Figure 11: LRD video trace, memoryless estimation — p_f vs 1/ThTilde",
		Run:         func(f Fidelity, seed uint64) ([]*Table, error) { return runVideo(f, seed, false) },
	})
	register(Runner{
		ID:          "fig12",
		Description: "Figure 12: LRD video trace with Tm = ThTilde — robust across 1/ThTilde",
		Run:         func(f Fidelity, seed uint64) ([]*Table, error) { return runVideo(f, seed, true) },
	})
}

// videoTrace synthesizes the Starwars substitute once per call (seeded, so
// fig11 and fig12 see the same trace when given the same seed).
func videoTrace(f Fidelity, seed uint64) (*trace.Trace, error) {
	cfg := trace.DefaultVideoConfig()
	if f == Full {
		cfg.N = 1 << 17
	}
	return trace.SyntheticVideo(cfg, rng.New(seed, 0x766964)) // stream "vid"
}

// videoThSweep picks the holding-time sweep; the x-axis of Figs 11/12 is
// 1/ThTilde.
func videoThSweep(f Fidelity) []float64 {
	switch f {
	case Quick:
		return []float64{100, 1000, 10000}
	default:
		return []float64{30, 100, 300, 1000, 3000, 10000}
	}
}

func runVideo(f Fidelity, seed uint64, withMemory bool) ([]*Table, error) {
	const n = 100.0
	pce := quickTarget(f, 1e-3)
	tr, err := videoTrace(f, seed)
	if err != nil {
		return nil, err
	}
	st := tr.Stats()
	id, title := "fig11", "LRD video, memoryless estimation: p_f vs 1/ThTilde"
	if withMemory {
		id, title = "fig12", "LRD video, Tm = ThTilde: p_f vs 1/ThTilde"
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"inv_ThTilde", "Th", "Tm", "pf_sim", "pf_over_pce", "resolved"},
	}
	t.Note("synthetic Starwars substitute: mean=%.3g sigma=%.3g Hurst=%.2f corrTime=%.3g (see DESIGN.md substitution #1)",
		st.Mean, st.StdDev(), tr.Hurst(), st.CorrTime)
	sweep := videoThSweep(f)
	rows := make([][]float64, len(sweep))
	err = sim.Replicated{Replications: len(sweep), Stripes: len(sweep)}.Run(context.Background(), func(_, i int, _ *rng.PCG) error {
		th := sweep[i]
		thTilde := th / math.Sqrt(n)
		tm := 0.0
		if withMemory {
			tm = thTilde
		}
		res, err := run(spec{
			N: n, SVR: st.StdDev() / st.Mean, Th: th, Tc: st.CorrTime, Tm: tm, Pce: pce,
			Model: trace.Model{Trace: tr},
			Seed:  seed + uint64(th), MaxTime: simBudget(f), TargetP: pce,
		})
		if err != nil {
			return err
		}
		resolved := 0.0
		if res.Resolved {
			resolved = 1
		}
		rows[i] = []float64{1 / thTilde, th, tm, res.Pf, res.Pf / pce, resolved}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Note("n=%g pce=%g fidelity=%s", n, pce, f)
	if withMemory {
		t.Note("expected: pf_over_pce stays ~<= 1 across the sweep (robust)")
	} else {
		t.Note("expected: misses the target by 1-2 orders of magnitude at large ThTilde (small 1/ThTilde)")
	}
	return []*Table{t}, nil
}
