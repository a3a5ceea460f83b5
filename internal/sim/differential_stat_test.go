//go:build stat

package sim

import (
	"fmt"
	"testing"
)

// TestStatColumnarDifferential is the stat-tier version of the columnar/
// scalar differential: larger ensembles (enough replications to span
// several worker stripes and force arena recycling and column growth), more
// seeds, and a finer probe grid — bit for bit for the bitIdenticalModels,
// in law for the inLawModels, with and without departures. The Makefile
// runs this tier under -race as well: the columnar path keeps worker-local
// arenas alive across replications and hands scratch state between
// stripes, exactly the sharing the race detector should see under real
// load.
func TestStatColumnarDifferential(t *testing.T) {
	for name, model := range bitIdenticalModels() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := ImpulsiveConfig{
					Capacity:     100,
					Model:        model,
					Controller:   mustCE(t, 1e-2),
					MeasureCount: 100,
					HoldingTime:  100,
					Grid:         []float64{0.25, 0.5, 1, 2, 5, 10, 25, 50},
					Replications: 200,
					Seed:         seed,
				}
				scalar, columnar := runBothImpulsive(t, cfg)
				assertImpulsiveEqual(t, scalar, columnar)
			}
		})
	}
	for name, model := range inLawModels(t) {
		for _, holding := range []float64{100, 0} {
			t.Run(fmt.Sprintf("%s,holding=%g", name, holding), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					assertImpulsiveInLaw(t, ImpulsiveConfig{
						Capacity:     100,
						Model:        model,
						Controller:   mustCE(t, 0.1),
						MeasureCount: 100,
						HoldingTime:  holding,
						Grid:         []float64{0.25, 0.5, 1, 2, 5, 10},
						Replications: 5000,
						Seed:         seed,
					})
				}
			})
		}
	}
}
