package solar_test

import (
	"math"
	"testing"

	"solarpred/internal/dataset"
	"solarpred/internal/fleet"
	"solarpred/internal/solar"
)

// TestClearSkyDayMatchesPositionAt pins ClearSkyDay's hoisted per-day
// geometry to the per-sample reference ClearSkyGHI(PositionAt(...)) bit
// for bit, over the paper sites and a sampled fleet site set, every day
// of the year and the resolutions the generator uses.
func TestClearSkyDayMatchesPositionAt(t *testing.T) {
	var geos []solar.Site
	for _, s := range dataset.Sites() {
		geos = append(geos, s.Geo)
	}
	cfg := fleet.DefaultConfig(1)
	cfg.Sites = 4
	fleetSites, err := fleet.BuildSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fleetSites {
		geos = append(geos, s.Geo)
	}
	for _, geo := range geos {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			for _, res := range []int{1, 5, 15} {
				out := make([]float64, 1440/res)
				for doy := 1; doy <= solar.DaysPerYear; doy++ {
					if err := solar.ClearSkyDay(geo, doy, res, out); err != nil {
						t.Fatal(err)
					}
					for i, got := range out {
						want := solar.ClearSkyGHI(solar.PositionAt(geo, doy, float64(i*res)).Elevation)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("site %+v doy %d res %d sample %d: ClearSkyDay %v, PositionAt path %v",
								geo, doy, res, i, got, want)
						}
					}
				}
			}
		})
	}
}
