// Package sweep turns declarative parameter grids into batches of eend
// Scenarios and runs them with a content-addressed result cache: the
// substrate for evaluating "as many scenarios as you can imagine" without
// re-simulating the ones already answered.
//
// A grid is a cartesian product of named axes:
//
//	g := sweep.NewGrid().
//		Axis("nodes", 10, 20, 50).
//		Axis("seed", 1, 2, 3).
//		Axis("stack", "titan-pc/odpm", "dsr/odpm").
//		Axis("topology", "uniform", "cluster")
//
// or, equivalently, parsed from the text syntax shared by cmd/eendsweep
// and the eendd HTTP API:
//
//	g, err := sweep.ParseGrid("nodes=10,20,50 seed=1..3 stack=titan-pc/odpm,dsr/odpm topology=uniform,cluster")
//
// Runner expands the grid, consults the cache (keyed by each Scenario's
// Fingerprint), simulates only the misses, and streams per-point results
// with live progress.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Axis is one named dimension of a parameter grid. Values are kept as
// strings (the text-syntax representation); they are parsed per axis when
// points are turned into Scenarios.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Grid is a declarative cartesian parameter grid. Build one with NewGrid
// followed by Axis calls, or parse the text syntax with ParseGrid.
type Grid struct {
	axes []Axis
	err  error // first construction error, surfaced by Validate/Points
}

// NewGrid returns an empty grid.
func NewGrid() *Grid { return &Grid{} }

// Axis appends a dimension. Values of any type are rendered with
// fmt.Sprint, so Axis("nodes", 10, 20) and Axis("nodes", "10", "20") are
// equivalent. Construction errors (empty name, no values, duplicate axis)
// are deferred to Validate/Points so calls chain fluently.
func (g *Grid) Axis(name string, values ...any) *Grid {
	if g.err == nil {
		g.err = checkAxis(g.axes, name, len(values))
	}
	vals := make([]string, len(values))
	for i, v := range values {
		vals[i] = fmt.Sprint(v)
	}
	g.axes = append(g.axes, Axis{Name: name, Values: vals})
	return g
}

// checkAxis rejects malformed additions.
func checkAxis(axes []Axis, name string, n int) error {
	if name == "" {
		return fmt.Errorf("sweep: axis with empty name")
	}
	if n == 0 {
		return fmt.Errorf("sweep: axis %q has no values", name)
	}
	for _, a := range axes {
		if a.Name == name {
			return fmt.Errorf("sweep: duplicate axis %q", name)
		}
	}
	if _, ok := axisRegistry[name]; !ok {
		return fmt.Errorf("sweep: unknown axis %q (want one of %v)", name, AxisNames())
	}
	return nil
}

// Axes returns the grid's dimensions in declaration order (the column
// order cmd/eendsweep uses for CSV output).
func (g *Grid) Axes() []Axis { return append([]Axis(nil), g.axes...) }

// Size returns the number of points the grid expands to.
func (g *Grid) Size() int {
	if len(g.axes) == 0 {
		return 0
	}
	n := 1
	for _, a := range g.axes {
		// Saturate: a limit checked against Size cannot be multiplied past.
		l := len(a.Values)
		if l > 0 && n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// Validate reports the first construction error: empty or duplicate axis,
// unknown axis name, or an empty grid.
func (g *Grid) Validate() error {
	if g.err != nil {
		return g.err
	}
	if len(g.axes) == 0 {
		return fmt.Errorf("sweep: empty grid")
	}
	return nil
}

// Point is one parameter assignment of the grid: a value for every axis.
type Point struct {
	// Index is the point's position in the grid's deterministic expansion
	// order (first declared axis varies slowest).
	Index int `json:"index"`
	// Params maps axis name to this point's value.
	Params map[string]string `json:"params"`
}

// Points expands the grid in deterministic order: the first declared axis
// varies slowest, the last varies fastest, so re-declaring the same grid
// always yields the same point indices.
func (g *Grid) Points() ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Size() == math.MaxInt {
		return nil, fmt.Errorf("sweep: grid size overflows int")
	}
	pts := make([]Point, g.Size())
	for i := range pts {
		params := make(map[string]string, len(g.axes))
		rem := i
		for ax := len(g.axes) - 1; ax >= 0; ax-- {
			a := g.axes[ax]
			params[a.Name] = a.Values[rem%len(a.Values)]
			rem /= len(a.Values)
		}
		pts[i] = Point{Index: i, Params: params}
	}
	return pts, nil
}

// ParseGrid parses the text grid syntax: whitespace-separated axes of the
// form name=v1,v2,..., where integer spans may be written lo..hi
// (inclusive). Example:
//
//	nodes=10,20,50 seed=1..5 stack=titan-pc/odpm,dsr/odpm topology=uniform,cluster rate=2
func ParseGrid(spec string) (*Grid, error) {
	g := NewGrid()
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		return nil, fmt.Errorf("sweep: empty grid spec")
	}
	for _, field := range fields {
		name, vals, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("sweep: %q is not name=values", field)
		}
		var values []any
		for _, v := range strings.Split(vals, ",") {
			if v == "" {
				return nil, fmt.Errorf("sweep: axis %q has an empty value", name)
			}
			expanded, err := expandSpan(v)
			if err != nil {
				return nil, err
			}
			if values = append(values, expanded...); len(values) > maxAxisValues {
				return nil, fmt.Errorf("sweep: axis %q has more than %d values", name, maxAxisValues)
			}
		}
		// Stop at the first bad axis: a spec repeating one axis a million
		// times must not be expanded a million times before it is refused.
		if err := g.Axis(name, values...).Validate(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// maxAxisValues bounds what one axis of a text spec may expand to, however
// its spans and lists add up; with one axis per known name that bounds the
// memory a spec from outside can claim.
const maxAxisValues = 10000

// expandSpan turns "lo..hi" into the inclusive integer range; any other
// token passes through verbatim.
func expandSpan(v string) ([]any, error) {
	lo, hi, ok := strings.Cut(v, "..")
	if !ok {
		return []any{v}, nil
	}
	a, err1 := strconv.Atoi(lo)
	b, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("sweep: span %q is not int..int", v)
	}
	if b < a {
		return nil, fmt.Errorf("sweep: span %q is decreasing", v)
	}
	// Unsigned: b-a itself overflows int when the span crosses most of its
	// range, and i <= b never ends when b is the largest int.
	width := uint64(b) - uint64(a)
	if width >= maxAxisValues {
		return nil, fmt.Errorf("sweep: span %q expands to more than %d values", v, maxAxisValues)
	}
	out := make([]any, 0, width+1)
	for i := 0; i <= int(width); i++ {
		out = append(out, a+i)
	}
	return out, nil
}
