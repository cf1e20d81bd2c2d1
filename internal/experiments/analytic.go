package experiments

import (
	"fmt"
	"strings"

	"eend/internal/core"
	"eend/internal/metrics"
	"eend/internal/radio"
)

// table1 renders the radio parameters of the modelled cards, converted
// back to the paper's mW units.
func table1(f *Figure) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %12s %14s %4s %8s\n",
		"Card", "Pidle(mW)", "Prx(mW)", "Pbase(mW)", "alpha2(mW/m^n)", "n", "D(m)")
	for _, c := range radio.Cards() {
		fmt.Fprintf(&b, "%-24s %10.1f %10.1f %12.1f %14.3g %4.0f %8.0f\n",
			c.Name, c.Idle*1e3, c.Recv*1e3, c.Base*1e3, c.Alpha*1e3, c.PathLossExp, c.Range)
	}
	f.Text = b.String()
}

// fig7 plots m_opt against R/B for every card (Eq. 15).
func fig7(f *Figure) {
	for _, fc := range core.Fig7Cards() {
		s := metrics.NewSeries(fmt.Sprintf("%s (D=%.0fm)", fc.Card.Name, fc.D))
		for _, pt := range core.MoptCurve(fc.Card, fc.D, 0.10, 0.50, 0.05) {
			s.Observe(pt.RB, pt.Mopt)
		}
		f.Series = append(f.Series, s)
	}
}
