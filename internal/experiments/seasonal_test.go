package experiments

import (
	"testing"

	"solarpred/internal/core"
)

func TestMonthOfDay(t *testing.T) {
	cases := map[int]int{
		0:   1,  // Jan 1
		30:  1,  // Jan 31
		31:  2,  // Feb 1
		58:  2,  // Feb 28
		59:  3,  // Mar 1
		364: 12, // Dec 31
		400: 12, // overflow clamps into December
	}
	for day, want := range cases {
		if got := monthOfDay(day); got != want {
			t.Errorf("monthOfDay(%d) = %d, want %d", day, got, want)
		}
	}
}

func TestSeasonalFullYear(t *testing.T) {
	cfg := quick()
	cfg.Sites = []string{"SPMD"}
	cfg.Days = 365
	params := core.Params{Alpha: 0.6, D: 10, K: 2}
	months, err := Seasonal(cfg, "SPMD", 24, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 12 {
		t.Fatalf("months = %d", len(months))
	}
	// January is inside the 10-day warm-up only partially: must still
	// have samples from day 11 on.
	if months[0].Samples == 0 {
		t.Error("January has no samples despite short warm-up")
	}
	var total int
	var best, worst MonthError
	for _, m := range months {
		if m.Samples == 0 {
			continue
		}
		if m.MAPE <= 0 || m.MAPE > 1.5 {
			t.Errorf("month %d MAPE %.4f implausible", m.Month, m.MAPE)
		}
		if total == 0 || m.MAPE < best.MAPE {
			best = m
		}
		if total == 0 || m.MAPE > worst.MAPE {
			worst = m
		}
		total += m.Samples
	}
	if total == 0 {
		t.Fatal("no samples at all")
	}
	if worst.MAPE <= best.MAPE {
		t.Error("spread degenerate")
	}
	// A variable continental site must show a real month-to-month spread
	// (the realised best/worst months are stochastic, so only the
	// magnitude is asserted).
	if worst.MAPE-best.MAPE < 0.03 {
		t.Errorf("seasonal spread only %.2fpp; expected > 3pp on SPMD",
			(worst.MAPE-best.MAPE)*100)
	}
	if best.Month == worst.Month {
		t.Error("best and worst month identical")
	}
	// Day-length effect: December must score fewer in-ROI samples than
	// June (shorter days ⇒ fewer daylight slots).
	if months[11].Samples >= months[5].Samples {
		t.Errorf("December samples (%d) not below June (%d)",
			months[11].Samples, months[5].Samples)
	}
}

func TestSeasonalValidation(t *testing.T) {
	bad := quick()
	bad.Sites = nil
	if _, err := Seasonal(bad, "SPMD", 24, core.Params{Alpha: 0.5, D: 5, K: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}
