package experiments

import (
	"strings"
	"testing"
)

func TestAblationIDsAndDispatch(t *testing.T) {
	ids := AblationIDs()
	if len(ids) != 4 {
		t.Fatalf("AblationIDs = %v", ids)
	}
	if _, err := quickRunner().RunAblation(bg, "ablation-nope"); err == nil {
		t.Fatal("unknown ablation should fail")
	}
}

func TestAblationTITAN(t *testing.T) {
	f := studyPlots(bg, "ablation-titan")[0]
	assertNoErrors(t, f)
	if len(f.Series) != 8 { // 4 variants x (goodput, relays)
		t.Fatalf("series = %d, want 8", len(f.Series))
	}
	// Removing both mechanisms must not use fewer relays than full TITAN
	// (the bias exists to concentrate traffic).
	full := sumSeries(f, "TITAN-PC (full) relays")
	neither := sumSeries(f, "neither (≈DSR-PC) relays")
	if full > neither*1.5 {
		t.Errorf("full TITAN relays %.1f should not exceed the ablated variant %.1f by much",
			full, neither)
	}
}

func TestAblationODPM(t *testing.T) {
	f := studyPlots(bg, "ablation-odpm")[0]
	assertNoErrors(t, f)
	if len(f.Series) != 8 {
		t.Fatalf("series = %d, want 8", len(f.Series))
	}
	// Long keep-alives must not beat short ones on goodput at light load:
	// more idling for the same traffic.
	short := sumSeries(f, "0.6s/1.2s goodput")
	long := sumSeries(f, "20s/40s goodput")
	if long >= short {
		t.Errorf("20s/40s goodput %.0f should trail 0.6s/1.2s %.0f", long, short)
	}
}

func TestAblationPC(t *testing.T) {
	f := studyPlots(bg, "ablation-pc")[0]
	assertNoErrors(t, f)
	on := sumSeries(f, "PC on radiated(J)")
	off := sumSeries(f, "PC off radiated(J)")
	if on >= off {
		t.Errorf("PC-on radiated %.2f J should undercut PC-off %.2f J", on, off)
	}
}

func TestAblationSpan(t *testing.T) {
	f := studyPlots(bg, "ablation-span")[0]
	assertNoErrors(t, f)
	on := sumSeries(f, "span on idle(J)")
	off := sumSeries(f, "span off idle(J)")
	if on >= off {
		t.Errorf("span-on idle %.1f J should undercut span-off %.1f J", on, off)
	}
}

// sumSeries totals a series' means across all x values.
func sumSeries(f *Figure, label string) float64 {
	for _, s := range f.Series {
		if s.Label == label {
			var sum float64
			for _, x := range s.Xs() {
				sum += s.At(x).Mean()
			}
			return sum
		}
	}
	return -1
}

func TestAblationLabelsWellFormed(t *testing.T) {
	for _, id := range AblationIDs() {
		if !strings.HasPrefix(id, "ablation-") {
			t.Errorf("id %q missing ablation- prefix", id)
		}
	}
}
