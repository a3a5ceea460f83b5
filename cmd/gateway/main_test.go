package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/loadgen"
)

// TestReplayDepartsEveryAdmittedFlow replays short-lived flows at 8
// workers, so many flows are admitted and depart inside one tick window.
// Every admitted flow must depart by the end of the replay: a driver that
// lets a flow's depart overtake its admit leaves the flow active forever.
func TestReplayDepartsEveryAdmittedFlow(t *testing.T) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		events, err := loadgen.Schedule(loadgen.Config{
			Seed: seed, Lambda: 20, Hold: 2, SVR: 0.3, TC: 1, Duration: 40, Renegotiate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows := int64(0)
		for _, ev := range events {
			if ev.Kind == loadgen.KindAdmit {
				flows++
			}
		}
		g, err := gateway.New(gateway.Config{Capacity: 30, Controller: ctrl, Estimator: estimator.NewMemoryless()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := loadgen.RunConfig{Workers: 8, Batch: 4}
		if err := replay(g, events, 40, 0.5, cfg, func(now float64) { g.Tick(now) }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := g.Stats()
		if st.Active != 0 || st.Departed != st.Admitted {
			t.Errorf("seed %d: %d admitted, %d departed, %d still active", seed, st.Admitted, st.Departed, st.Active)
		}
		if st.Admitted+st.Rejected != flows {
			t.Errorf("seed %d: %d admitted + %d rejected, want %d scheduled flows", seed, st.Admitted, st.Rejected, flows)
		}
		if st.Rejected == 0 {
			t.Errorf("seed %d: no rejections; the load should exceed the bound", seed)
		}
	}
}
