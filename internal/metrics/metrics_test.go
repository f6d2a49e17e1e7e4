package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddAndSort(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	s.Sort()
	for i, want := range []float64{1, 2, 3} {
		if s.Points[i].X != want {
			t.Fatalf("point %d X = %g, want %g", i, s.Points[i].X, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestYAt(t *testing.T) {
	s := &Series{}
	if s.YAt(1) != 0 {
		t.Fatal("empty series YAt != 0")
	}
	s.Add(0, 5)
	s.Add(1, 7)
	if got := s.YAt(0.5); got != 7 {
		t.Fatalf("YAt(0.5) = %g, want 7 (first X >= x)", got)
	}
	if got := s.YAt(2); got != 7 {
		t.Fatalf("YAt(2) = %g, want last value 7", got)
	}
	if got := s.YAt(-1); got != 5 {
		t.Fatalf("YAt(-1) = %g, want 5", got)
	}
}

func TestCrossoverBelow(t *testing.T) {
	s := &Series{}
	s.Add(0.0, 1.0)
	s.Add(0.2, 0.96)
	s.Add(0.4, 0.90)
	s.Add(0.6, 0.80)
	x, ok := s.CrossoverBelow(0.93)
	if !ok {
		t.Fatal("no crossover found")
	}
	// Linear interpolation between (0.2, 0.96) and (0.4, 0.90):
	// 0.93 at x = 0.2 + (0.96-0.93)/(0.96-0.90) * 0.2 = 0.3.
	if math.Abs(x-0.3) > 1e-9 {
		t.Fatalf("crossover at %g, want 0.3", x)
	}
}

func TestCrossoverNever(t *testing.T) {
	s := &Series{}
	s.Add(0, 0.99)
	s.Add(1, 0.95)
	if _, ok := s.CrossoverBelow(0.5); ok {
		t.Fatal("found nonexistent crossover")
	}
}

func TestCrossoverAtFirstPoint(t *testing.T) {
	s := &Series{}
	s.Add(0.1, 0.5)
	s.Add(0.2, 0.4)
	x, ok := s.CrossoverBelow(0.93)
	if !ok || x != 0.1 {
		t.Fatalf("crossover = %g, %v; want 0.1, true", x, ok)
	}
}

func TestCrossoverFlatSegment(t *testing.T) {
	s := &Series{}
	s.Add(0, 0.95)
	s.Add(1, 0.95)
	s.Add(2, 0.80)
	s.Add(3, 0.80)
	x, ok := s.CrossoverBelow(0.90)
	if !ok {
		t.Fatal("no crossover")
	}
	if x < 1 || x > 2 {
		t.Fatalf("crossover %g outside [1,2]", x)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("StdDev = %g", got)
	}
	if StdDev([]float64{3}) != 0 {
		t.Fatal("StdDev of singleton != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// Quantile must not mutate its input.
	xs2 := []float64{5, 1, 3}
	Quantile(xs2, 0.5)
	if xs2[0] != 5 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestQuantileMonotone(t *testing.T) {
	err := quick.Check(func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(raw, qa) <= Quantile(raw, qb)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	a := &Series{Name: "alpha"}
	a.Add(0, 1)
	a.Add(1, 0.5)
	b := &Series{Name: "beta"}
	b.Add(0, 0.9)
	out := Table("x", a, b)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.5000") {
		t.Fatalf("missing value:\n%s", out)
	}
	// b has no point at x=1; the cell renders as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "-") {
		t.Fatalf("missing-value cell not rendered: %q", last)
	}
}

func TestRenderRowsEmpty(t *testing.T) {
	if RenderRows(nil) != "" {
		t.Fatal("RenderRows(nil) non-empty")
	}
}

func TestRenderRowsAlignment(t *testing.T) {
	out := RenderRows([][]string{{"a", "bb"}, {"ccc", "d"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("no header rule: %q", lines[1])
	}
}

func TestCSV(t *testing.T) {
	a := &Series{Name: "with,comma"}
	a.Add(0, 1)
	a.Add(0.5, 2)
	out := CSV("x", a)
	if !strings.Contains(out, "\"with,comma\"") {
		t.Fatalf("comma header not escaped: %s", out)
	}
	if !strings.Contains(out, "0.5,2") {
		t.Fatalf("row missing: %s", out)
	}
}

func TestCSVEscapeQuote(t *testing.T) {
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Fatalf("csvEscape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Fatalf("csvEscape = %q", got)
	}
}
