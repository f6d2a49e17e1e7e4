// Package metrics provides the small numeric and reporting toolkit used to
// regenerate the paper's figures: (x, y) series, summary statistics,
// crossover detection ("what attacker fraction pushes delivery below 93%?"),
// and aligned-table / CSV rendering.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// unionXs returns the ascending union of X values across series — the row
// order Table and CSV share. slices.Sorted over the key set keeps map
// iteration order out of rendered artifacts entirely.
func unionXs(series []*Series) []float64 {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	return slices.Sorted(maps.Keys(xsSet))
}

// Point is one (x, y) sample of a sweep.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a named sequence of points, ordered by X.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Add appends a point; callers should add points in ascending X order or
// call Sort afterwards.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Sort orders points by ascending X.
func (s *Series) Sort() {
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// YAt returns the Y value at the first point with X >= x, or the last point's
// Y if all X < x. It returns 0 for an empty series.
func (s *Series) YAt(x float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	for _, p := range s.Points {
		if p.X >= x {
			return p.Y
		}
	}
	return s.Points[len(s.Points)-1].Y
}

// CrossoverBelow returns the smallest X at which Y drops below threshold,
// interpolating linearly between bracketing points. The second result is
// false if the series never drops below the threshold.
//
// This implements the paper's headline statistics: e.g. "the attacker needs
// to control 42% of the system to ensure fewer than 93% of the updates are
// delivered" is CrossoverBelow(0.93) on the crash-attack series.
func (s *Series) CrossoverBelow(threshold float64) (float64, bool) {
	for i, p := range s.Points {
		if p.Y < threshold {
			if i == 0 {
				return p.X, true
			}
			prev := s.Points[i-1]
			dy := p.Y - prev.Y
			if dy == 0 {
				return p.X, true
			}
			t := (threshold - prev.Y) / dy
			return prev.X + t*(p.X-prev.X), true
		}
	}
	return 0, false
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders series side by side as an aligned text table: the first
// column is X (union of all X values across series, ascending), then one
// column per series. Missing values render as "-".
func Table(xLabel string, series ...*Series) string {
	xs := unionXs(series)

	header := make([]string, 0, len(series)+1)
	header = append(header, xLabel)
	for _, s := range series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%.3f", x)}
		for _, s := range series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.4f", p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return RenderRows(rows)
}

// RenderRows renders rows of cells as an aligned, space-padded text table
// with a rule under the header row.
func RenderRows(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(rows[0])
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range rows[1:] {
		writeRow(row)
	}
	return b.String()
}

// CSV renders series as comma-separated values with an x column followed by
// one column per series (same layout as Table).
func CSV(xLabel string, series ...*Series) string {
	xs := unionXs(series)

	var b strings.Builder
	b.WriteString(csvEscape(xLabel))
	for _, s := range series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteString(",")
			found := false
			for _, p := range s.Points {
				if p.X == x {
					fmt.Fprintf(&b, "%g", p.Y)
					found = true
					break
				}
			}
			if !found {
				b.WriteString("")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}
