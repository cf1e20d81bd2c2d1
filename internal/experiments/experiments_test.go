package experiments

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
)

func quickRunner() Runner { return Runner{Scale: Quick} }

// studyPlots runs the study that draws plot id once, at Quick scale, and
// returns all of its plots. A failed sweep's plots keep their ERROR notes,
// which Run would turn into an error.
func studyPlots(ctx context.Context, id string) []*Figure {
	st, _ := find(id)
	return quickRunner().runStudy(ctx, st)
}

var bg = context.Background()

func seriesMean(f *Figure, label string, x float64) (float64, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			p := s.At(x)
			if p == nil {
				return 0, false
			}
			return p.Mean(), true
		}
	}
	return 0, false
}

func assertNoErrors(t *testing.T, f *Figure) {
	t.Helper()
	for _, n := range f.Notes {
		if strings.Contains(n, "ERROR") {
			t.Fatalf("%s: %s", f.ID, n)
		}
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"quick": Quick, "": Quick, "full": Full, "paper": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v,%v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale should fail")
	}
}

func TestIDsAndDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs = %v, want 12 experiments", ids)
	}
	if _, err := quickRunner().Run(bg, "nope"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestTable1(t *testing.T) {
	f := studyPlots(bg, "table1")[0]
	for _, name := range []string{"Aironet 350", "Cabletron", "Hypothetical", "Mica2", "LEACH"} {
		if !strings.Contains(f.Text, name) {
			t.Errorf("Table 1 missing %q", name)
		}
	}
	if !strings.Contains(f.Render(), "Radio parameters") {
		t.Error("Render should include the title")
	}
}

func TestFig7Shape(t *testing.T) {
	f := studyPlots(bg, "fig7")[0]
	if len(f.Series) != 6 {
		t.Fatalf("Fig. 7 has %d curves, want 6", len(f.Series))
	}
	// Every real card stays below 2; the hypothetical card crosses 2.
	for _, s := range f.Series {
		hyp := strings.Contains(s.Label, "Hypothetical")
		max := 0.0
		for _, x := range s.Xs() {
			if m := s.At(x).Mean(); m > max {
				max = m
			}
		}
		if hyp && max < 2 {
			t.Errorf("%s: max m_opt %.2f, want >= 2", s.Label, max)
		}
		if !hyp && max >= 2 {
			t.Errorf("%s: max m_opt %.2f, want < 2", s.Label, max)
		}
	}
	if f.CSV() == "" {
		t.Error("Fig. 7 should render CSV")
	}
}

func TestSmallNetworksShapes(t *testing.T) {
	figs := studyPlots(bg, "fig8")
	fig8, fig9 := figs[0], figs[1]
	assertNoErrors(t, fig8)
	assertNoErrors(t, fig9)
	if len(fig8.Series) != 8 || len(fig9.Series) != 8 {
		t.Fatalf("small networks plot 8 stacks, got %d/%d", len(fig8.Series), len(fig9.Series))
	}
	// Reactive stacks deliver well at the lowest rate.
	for _, label := range []string{"TITAN-PC", "DSR-ODPM", "DSR-Active"} {
		if d, ok := seriesMean(fig8, label, 2); !ok || d < 0.8 {
			t.Errorf("%s delivery at 2K = %.2f, want >= 0.8", label, d)
		}
	}
	// Power management must beat always-active on energy goodput.
	titan, ok1 := seriesMean(fig9, "TITAN-PC", 2)
	active, ok2 := seriesMean(fig9, "DSR-Active", 2)
	if !ok1 || !ok2 {
		t.Fatal("missing goodput series")
	}
	if titan <= active {
		t.Errorf("TITAN-PC goodput %.0f should beat DSR-Active %.0f", titan, active)
	}
	// DSDVH-ODPM's goodput collapses toward the always-active level
	// (paper: ~85%% below TITAN-PC).
	dsdvh, ok := seriesMean(fig9, "DSDVH-ODPM(5,10)-PSM", 2)
	if !ok {
		t.Fatal("missing DSDVH series")
	}
	if dsdvh >= titan {
		t.Errorf("DSDVH goodput %.0f should be far below TITAN-PC %.0f", dsdvh, titan)
	}
}

func TestFig10TransmitEnergy(t *testing.T) {
	f := studyPlots(bg, "fig10")[0]
	assertNoErrors(t, f)
	if len(f.Series) != 4 {
		t.Fatalf("Fig. 10 has %d series, want 4 (2 stacks x 2 fields)", len(f.Series))
	}
	// Power control: TITAN-PC transmit energy below DSR-ODPM in each field.
	for _, suffix := range []string{"(420x420)", "(800x800)"} {
		var titan, dsr float64
		var okT, okD bool
		for _, s := range f.Series {
			for _, x := range s.Xs() {
				m := s.At(x).Mean()
				switch {
				case strings.HasPrefix(s.Label, "TITAN-PC") && strings.Contains(s.Label, suffix):
					titan, okT = titan+m, true
				case strings.HasPrefix(s.Label, "DSR-ODPM") && strings.Contains(s.Label, suffix):
					dsr, okD = dsr+m, true
				}
			}
		}
		if !okT || !okD {
			t.Fatalf("missing series for %s", suffix)
		}
		if titan >= dsr {
			t.Errorf("%s: TITAN-PC TX %.2f J should undercut DSR-ODPM %.2f J", suffix, titan, dsr)
		}
	}
}

func TestLargeNetworksShapes(t *testing.T) {
	figs := studyPlots(bg, "fig11")
	fig11, fig12 := figs[0], figs[1]
	assertNoErrors(t, fig11)
	assertNoErrors(t, fig12)
	if len(fig11.Series) != 7 {
		t.Fatalf("large networks plot 7 stacks, got %d", len(fig11.Series))
	}
	// Idle-first stacks must beat always-active on goodput.
	titan, _ := seriesMean(fig12, "TITAN-PC", 2)
	active, _ := seriesMean(fig12, "DSR-Active", 2)
	if titan <= active {
		t.Errorf("TITAN-PC goodput %.0f should beat DSR-Active %.0f", titan, active)
	}
}

func TestTable2Density(t *testing.T) {
	f := studyPlots(bg, "table2")[0]
	assertNoErrors(t, f)
	if len(f.Series) != 4 {
		t.Fatalf("Table 2 has %d series, want 4", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Xs()) != 2 {
			t.Errorf("%s has %d densities, want 2", s.Label, len(s.Xs()))
		}
	}
}

func TestGridFiguresShapes(t *testing.T) {
	figs := studyPlots(bg, "fig13")
	fig13, fig14, fig15 := figs[0], figs[1], figs[2]
	for _, f := range figs {
		assertNoErrors(t, f)
		if len(f.Series) != 6 {
			t.Fatalf("%s has %d series, want 6", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Xs()) != 4 {
				t.Fatalf("%s/%s has %d rates, want 4 (notes: %v)", f.ID, s.Label, len(s.Xs()), f.Notes)
			}
		}
	}
	// Perfect sleep, high rates: the comm-first stacks (MTPR) overtake
	// TITAN-PC (paper Fig. 15).
	mtpr, _ := seriesMean(fig15, "MTPR", 200)
	titan, _ := seriesMean(fig15, "TITAN-PC", 200)
	if mtpr <= titan {
		t.Errorf("fig15@200K: MTPR %.1f should beat TITAN-PC %.1f", mtpr, titan)
	}
	// ODPM scheduling, low rates: TITAN-PC wins (paper Fig. 14).
	titanLow, _ := seriesMean(fig14, "TITAN-PC", 2)
	mtprLow, _ := seriesMean(fig14, "MTPR", 2)
	dsrActiveLow, _ := seriesMean(fig14, "DSR-Active", 2)
	if titanLow <= mtprLow {
		t.Errorf("fig14@2K: TITAN-PC %.3f should beat MTPR %.3f", titanLow, mtprLow)
	}
	if titanLow <= dsrActiveLow {
		t.Errorf("fig14@2K: TITAN-PC %.3f should beat DSR-Active %.3f", titanLow, dsrActiveLow)
	}
	// With perfect sleep everything dwarfs ODPM goodput at low rates.
	titanPerfect, _ := seriesMean(fig13, "TITAN-PC", 2)
	if titanPerfect <= titanLow {
		t.Errorf("fig13@2K perfect sleep %.3f should exceed ODPM %.3f", titanPerfect, titanLow)
	}
}

// TestFailedStudyKeepsItsFigures: a sweep that fails (here: a cancelled
// context) still yields every figure of the study with its title and
// x-label, plus an ERROR note. Table 2 used to return an untitled figure.
func TestFailedStudyKeepsItsFigures(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	var figs []*Figure
	for _, id := range []string{"table2", "fig8", "fig10", "fig13", "ablation-pc"} {
		figs = append(figs, studyPlots(ctx, id)...)
	}
	for _, f := range figs {
		if f.Title == "" || f.XLabel == "" {
			t.Errorf("%s lost its title or x-label: %+v", f.ID, f)
		}
		if n := f.Notes[len(f.Notes)-1]; !strings.HasPrefix(n, "ERROR: ") {
			t.Errorf("%s: last note %q, want an ERROR note", f.ID, n)
		}
		for _, s := range f.Series {
			if len(s.Xs()) != 0 {
				t.Errorf("%s/%s carries points from a failed sweep", f.ID, s.Label)
			}
		}
	}
	if f := figs[0]; !strings.HasPrefix(f.Notes[0], "scale=quick: ") {
		t.Errorf("table2 dropped its scale note: %v", f.Notes)
	}
	// Analytic studies have nothing to cancel.
	assertNoErrors(t, studyPlots(ctx, "table1")[0])
	assertNoErrors(t, studyPlots(ctx, "fig7")[0])
}

// TestAllRunsEachStudyOnce: All shares one sweep between the figures that
// plot it (8/9, 11/12 and one route-stabilisation pass for 13-16), so it
// simulates exactly the jobs the paper studies expand to.
func TestAllRunsEachStudyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment at quick scale")
	}
	want := map[string]int{}
	for _, st := range catalogue {
		if st.ablation || st.sizing == nil {
			continue
		}
		_, jobs := st.expand(Quick)
		want[st.name] = len(jobs)
	}
	var mu sync.Mutex
	got := map[string]int{}
	r := quickRunner()
	r.Progress = func(format string, args ...any) {
		mu.Lock()
		got[args[0].(string)]++
		mu.Unlock()
	}
	figs, err := r.All(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Errorf("runs per study = %v, want %v", got, want)
	}
	if want["fig13-16"] != 6 {
		t.Errorf("grid study expands to %d stabilisation runs, want one per stack (6)", want["fig13-16"])
	}
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.ID)
	}
	if !slices.Equal(ids, IDs()) {
		t.Errorf("All returned %v, want %v", ids, IDs())
	}
}

// TestRunDispatchAll walks the whole catalogue: every listed ID must
// dispatch, through the entry point of its namespace, to a figure carrying
// that ID.
func TestRunDispatchAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	r := quickRunner()
	for _, ns := range []struct {
		ids []string
		run func(context.Context, string) (*Figure, error)
	}{{IDs(), r.Run}, {AblationIDs(), r.RunAblation}} {
		for _, id := range ns.ids {
			f, err := ns.run(bg, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			assertNoErrors(t, f)
			if f.ID != id || f.Title == "" || f.Render() == "" {
				t.Errorf("%s dispatched to figure %q (title %q)", id, f.ID, f.Title)
			}
		}
	}
}
