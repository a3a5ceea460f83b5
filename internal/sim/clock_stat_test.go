//go:build stat

package sim

import (
	"fmt"
	"testing"

	"repro/internal/traffic"
)

// TestStatMemorylessMatchesHeapOracle is the stat-tier version of
// TestMemorylessMatchesHeapOracle: five seeds and 12 000·T_c measured time
// per run on every Figure 10 cell, plus the two regimes the tier-1 check
// leaves out — Poisson arrivals above the admissible load (arrivals join
// the clock's total rate, blocking enters the books, and blocking keeps
// N_t at the controller's limit as continuous load does) and flows that
// never depart (T_h <= 0: no departure clocks, N_t = sup M_s).
func TestStatMemorylessMatchesHeapOracle(t *testing.T) {
	type variant struct {
		name       string
		cell       fig10Cell
		th, lambda float64
	}
	var variants []variant
	for _, c := range fig10Cells {
		variants = append(variants, variant{"continuous " + c.String(), c, fig10Th, 0})
	}
	for _, lambda := range []float64{0.12, 0.2} { // offered loads λ·T_h of 120 and 200 flows, above m* ≈ 91
		for _, c := range []fig10Cell{fig10Cells[0], fig10Cells[3]} {
			variants = append(variants, variant{fmt.Sprintf("poisson λ=%g %v", lambda, c), c, fig10Th, lambda})
		}
	}
	for _, c := range []fig10Cell{fig10Cells[0], fig10Cells[3]} {
		variants = append(variants, variant{"no departures " + c.String(), c, 0, 0})
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			clock, heap := schedulerPair(t, v.cell.tc, 5, func(m traffic.Model, seed uint64) Config {
				return fig10Config(t, m, v.cell, v.th, v.lambda, seed, 12000*v.cell.tc)
			})
			assertSameLaw(t, clock, heap)
			if v.lambda > 0 && (clock.blocked == 0 || heap.blocked == 0) {
				t.Errorf("overloaded arrivals (λ·T_h = %g) blocked nothing", v.lambda*v.th)
			}
			if v.th <= 0 && clock.departed+heap.departed != 0 {
				t.Errorf("flows departed with T_h <= 0: clock %d, heap %d", clock.departed, heap.departed)
			}
		})
	}
}
