package experiments

import (
	"context"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/theory"
)

func init() {
	register(Runner{
		ID:          "fig5",
		Description: "Figure 5: overflow probability vs estimator memory Tm — theory (eq. 38) and simulation",
		Run:         runFig5,
	})
	register(Runner{
		ID:          "fig6",
		Description: "Figure 6: adjusted certainty-equivalent target by inversion of eq. 38",
		Run:         runFig6,
	})
	register(Runner{
		ID:          "fig7",
		Description: "Figure 7: simulated overflow probability using the adjusted target (robustness check)",
		Run:         runFig7,
	})
	register(Runner{
		ID:          "fig9",
		Description: "Figure 9: overflow probability over (Tm/ThTilde, Tc) by numerical integration of eq. 37",
		Run:         runFig9,
	})
	register(Runner{
		ID:          "fig10",
		Description: "Figure 10: simulated overflow probability over the Figure 9 parameter range",
		Run:         runFig10,
	})
}

// fig5Params are the paper's Figure 5 settings: Th=1000, Tc=1, pce=1e-3 at
// sigma/mu=0.3. The system size is not stated in the caption; n=100 puts
// ThTilde=100 and gamma=30, squarely in the separation regime the figure
// illustrates.
const (
	fig5N   = 100.0
	fig5SVR = 0.3
	fig5Th  = 1000.0
	fig5Tc  = 1.0
	fig5Pce = 1e-3
)

// fig5TmSweep returns the memory sweep, logarithmic across the knee at
// Tm ~ ThTilde = 100.
func fig5TmSweep(f Fidelity) []float64 {
	switch f {
	case Quick:
		return []float64{0, 3, 30, 100, 300}
	case Standard:
		return []float64{0, 1, 3, 10, 30, 100, 300, 1000}
	default:
		return []float64{0, 0.3, 1, 3, 10, 30, 100, 200, 300, 1000, 3000}
	}
}

func runFig5(f Fidelity, seed uint64) ([]*Table, error) {
	pce := quickTarget(f, fig5Pce)
	t := &Table{
		ID:      "fig5",
		Title:   "p_f vs memory window Tm: theory vs simulation",
		Columns: []string{"Tm", "pf_sim", "pf_eq38", "pf_eq37_integral", "ci_halfwidth", "resolved"},
	}
	sweep := fig5TmSweep(f)
	rows := make([][]float64, len(sweep))
	err := sim.Replicated{Replications: len(sweep), Stripes: len(sweep)}.Run(context.Background(), func(_, i int, _ *rng.PCG) error {
		tm := sweep[i]
		s := spec{
			N: fig5N, SVR: fig5SVR, Th: fig5Th, Tc: fig5Tc, Tm: tm, Pce: pce,
			Seed: seed + uint64(tm*7+1), MaxTime: simBudget(f), TargetP: pce,
		}
		res, err := run(s)
		if err != nil {
			return err
		}
		sys := s.system()
		resolved := 0.0
		if res.Resolved {
			resolved = 1
		}
		rows[i] = []float64{tm, res.Pf,
			theory.ContinuousOverflowClosedForm(sys, pce),
			theory.ContinuousOverflowIntegral(sys, pce),
			res.OverflowHalfWidth, resolved}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Note("n=%g sigma/mu=%g Th=%g (ThTilde=%g) Tc=%g pce=%g fidelity=%s",
		fig5N, fig5SVR, fig5Th, fig5Th/math.Sqrt(fig5N), fig5Tc, pce, f)
	t.Note("expected shape: theory conservative vs simulation, knee at Tm ~ ThTilde")
	return []*Table{t}, nil
}

// fig6Cases are the paper's four curves: n in {100,1000} x Th in {1e3,1e4}.
var fig6Cases = []struct{ n, th float64 }{
	{100, 1e3}, {100, 1e4}, {1000, 1e3}, {1000, 1e4},
}

func runFig6(f Fidelity, _ uint64) ([]*Table, error) {
	const pq, svr, tc = 1e-3, 0.3, 1.0
	t := &Table{
		ID:    "fig6",
		Title: "Adjusted target p_ce from inverting eq. 38 (pq=1e-3)",
		Columns: []string{"Tm",
			"pce_n100_Th1e3", "pce_n100_Th1e4", "pce_n1000_Th1e3", "pce_n1000_Th1e4"},
	}
	sweep := []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	if f == Quick {
		sweep = []float64{1, 10, 100, 1000}
	}
	for _, tm := range sweep {
		row := []float64{tm}
		for _, c := range fig6Cases {
			sys := theory.System{Capacity: c.n, Mu: 1, Sigma: svr, Th: c.th, Tc: tc, Tm: tm}
			pce, err := theory.AdjustedTarget(sys, pq, theory.InvertClosedForm)
			if err != nil {
				pce = math.NaN() // unreachable target at this memory
			}
			row = append(row, pce)
		}
		t.AddRow(row...)
	}
	t.Note("sigma/mu=%g Tc=%g; NaN marks targets unreachable at that memory", svr, tc)
	t.Note("expected shape: pce << pq for small Tm (paper: < 1e-10), approaching pq as Tm grows")
	return []*Table{t}, nil
}

func runFig7(f Fidelity, seed uint64) ([]*Table, error) {
	const svr, tc = 0.3, 1.0
	pq := quickTarget(f, 1e-3)
	t := &Table{
		ID:      "fig7",
		Title:   "Simulated p_f with the adjusted target: should sit at or below pq",
		Columns: []string{"Tm", "n", "Th", "pce_adjusted", "pf_sim", "pf_over_pq", "resolved"},
	}
	cases := fig6Cases
	sweep := []float64{3, 10, 30, 100, 300}
	if f == Quick {
		cases = fig6Cases[:1]
		sweep = []float64{10, 100}
	}
	type point struct{ n, th, tm float64 }
	var pts []point
	for _, c := range cases {
		for _, tm := range sweep {
			pts = append(pts, point{c.n, c.th, tm})
		}
	}
	rows := make([][]float64, len(pts))
	err := sim.Replicated{Replications: len(pts), Stripes: len(pts)}.Run(context.Background(), func(_, i int, _ *rng.PCG) error {
		p := pts[i]
		sys := theory.System{Capacity: p.n, Mu: 1, Sigma: svr, Th: p.th, Tc: tc, Tm: p.tm}
		pce, err := theory.AdjustedTarget(sys, pq, theory.InvertClosedForm)
		if err != nil {
			// Unreachable target: even alpha -> inf cannot meet pq at this
			// memory; skip the point as the paper's plot does.
			return nil
		}
		res, err := run(spec{
			N: p.n, SVR: svr, Th: p.th, Tc: tc, Tm: p.tm, Pce: pce,
			Seed: seed + uint64(p.n+p.th+p.tm), MaxTime: simBudget(f), TargetP: pq,
		})
		if err != nil {
			return err
		}
		resolved := 0.0
		if res.Resolved {
			resolved = 1
		}
		rows[i] = []float64{p.tm, p.n, p.th, pce, res.Pf, res.Pf / pq, resolved}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r != nil {
			t.AddRow(r...)
		}
	}
	t.Note("pq=%g sigma/mu=%g Tc=%g fidelity=%s", pq, svr, tc, f)
	t.Note("expected: pf_over_pq <= ~1 across the whole range (robust MBAC)")
	return []*Table{t}, nil
}

// fig9Grid returns the (TmOverThTilde, Tc) grid.
func fig9Grid(f Fidelity) (tmRatios, tcs []float64) {
	tmRatios = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10}
	tcs = []float64{0.01, 0.1, 1, 10, 100, 1000}
	if f == Quick {
		tmRatios = []float64{0.01, 0.1, 1, 10}
		tcs = []float64{0.1, 1, 10, 100}
	}
	return tmRatios, tcs
}

func runFig9(f Fidelity, _ uint64) ([]*Table, error) {
	const n, svr, th, pce = 100.0, 0.3, 1000.0, 1e-3
	thTilde := th / math.Sqrt(n)
	tmRatios, tcs := fig9Grid(f)
	t := &Table{
		ID:      "fig9",
		Title:   "p_f by numerical integration of eq. 37 over (Tm/ThTilde, Tc)",
		Columns: append([]string{"Tm_over_ThTilde"}, tcLabels(tcs)...),
	}
	for _, r := range tmRatios {
		row := []float64{r}
		for _, tc := range tcs {
			sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc, Tm: r * thTilde}
			row = append(row, theory.ContinuousOverflowIntegral(sys, pce))
		}
		t.AddRow(row...)
	}
	t.Note("n=%g sigma/mu=%g Th=%g (ThTilde=%g) pce=%g; columns are Tc values", n, svr, th, thTilde, pce)
	t.Note("expected: non-robust for Tm << ThTilde at small Tc; flat and safe once Tm ~ ThTilde")
	return []*Table{t}, nil
}

func runFig10(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th = 100.0, 0.3, 1000.0
	pce := quickTarget(f, 1e-3)
	thTilde := th / math.Sqrt(n)
	tmRatios, tcs := fig9Grid(f)
	t := &Table{
		ID:      "fig10",
		Title:   "Simulated p_f over the Figure 9 parameter range",
		Columns: append([]string{"Tm_over_ThTilde"}, tcLabels(tcs)...),
	}
	grid := make([]float64, len(tmRatios)*len(tcs))
	err := sim.Replicated{Replications: len(grid), Stripes: len(grid)}.Run(context.Background(), func(_, i int, _ *rng.PCG) error {
		r, tc := tmRatios[i/len(tcs)], tcs[i%len(tcs)]
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Tm: r * thTilde, Pce: pce,
			Seed: seed + uint64(r*1000+tc*3), MaxTime: simBudget(f), TargetP: pce,
		})
		if err != nil {
			return err
		}
		grid[i] = res.Pf
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, r := range tmRatios {
		row := append([]float64{r}, grid[ri*len(tcs):(ri+1)*len(tcs)]...)
		t.AddRow(row...)
	}
	t.Note("n=%g sigma/mu=%g Th=%g (ThTilde=%g) pce=%g fidelity=%s; columns are Tc values",
		n, svr, th, thTilde, pce, f)
	return []*Table{t}, nil
}

// tcLabels builds the per-Tc column names for the grid figures.
func tcLabels(tcs []float64) []string {
	out := make([]string, len(tcs))
	for i, tc := range tcs {
		out[i] = "pf_Tc_" + formatCell(tc)
	}
	return out
}
