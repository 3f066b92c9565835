package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestMedianOdd(t *testing.T) {
	s := NewSeries("x")
	for _, v := range []int{30, 10, 20} {
		s.Add(0, ms(v))
	}
	if got := s.Median(); got != ms(20) {
		t.Fatalf("Median = %v, want 20ms", got)
	}
}

func TestMedianEven(t *testing.T) {
	s := NewSeries("x")
	for _, v := range []int{10, 20, 30, 40} {
		s.Add(0, ms(v))
	}
	if got := s.Median(); got != ms(25) {
		t.Fatalf("Median = %v, want 25ms", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	s := NewSeries("x")
	if got := s.Median(); got != 0 {
		t.Fatalf("Median of empty = %v, want 0", got)
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 100; i++ {
		s.Add(0, ms(i))
	}
	if p0 := s.Percentile(0); p0 != ms(1) {
		t.Errorf("P0 = %v, want 1ms", p0)
	}
	if p100 := s.Percentile(100); p100 != ms(100) {
		t.Errorf("P100 = %v, want 100ms", p100)
	}
	p50 := s.Percentile(50)
	if p50 < ms(50) || p50 > ms(51) {
		t.Errorf("P50 = %v, want ~50.5ms", p50)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, ms(1))
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	s.Percentile(101)
}

func TestMinMaxMean(t *testing.T) {
	s := NewSeries("x")
	for _, v := range []int{5, 1, 9, 5} {
		s.Add(0, ms(v))
	}
	if s.Percentile(0) != ms(1) || s.Max() != ms(9) || s.Mean() != ms(5) {
		t.Fatalf("min/max/mean = %v/%v/%v", s.Percentile(0), s.Max(), s.Mean())
	}
}

// Property: median always lies within [min, max] and percentiles are
// monotonic in p.
func TestQuickPercentileInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("q")
		for _, v := range raw {
			s.Add(0, time.Duration(v)*time.Microsecond)
		}
		med := s.Median()
		if med < s.Percentile(0) || med > s.Max() {
			return false
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCells(t *testing.T) {
	tb := NewTable("Fig. 11", "Docker", "K8s")
	tb.AddRow("Nginx", ms(500), ms(3000))
	tb.AddRow("ResNet", ms(5000), ms(8000))
	if v, ok := tb.Cell("Nginx", "K8s"); !ok || v != ms(3000) {
		t.Fatalf("Cell = %v,%v", v, ok)
	}
	if _, ok := tb.Cell("Nginx", "Podman"); ok {
		t.Fatal("unknown column returned ok")
	}
	if _, ok := tb.Cell("Apache", "K8s"); ok {
		t.Fatal("unknown row returned ok")
	}
	if len(tb.rows) != 2 || tb.rows[0].name != "Nginx" {
		t.Fatalf("rows = %v", tb.rows)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tb.AddRow("r", ms(1))
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Microsecond, "0.500 ms"},
		{250 * time.Millisecond, "250 ms"},
		{3200 * time.Millisecond, "3.20 s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.in); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("Fig. X", "Docker")
	tb.AddRow("Nginx", ms(500))
	out := tb.String()
	for _, want := range []string{"Fig. X", "Docker", "Nginx", "500 ms"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "Docker", "K8s")
	tb.AddRow("Nginx", ms(500), ms(3000))
	got := tb.CSV()
	want := "name,Docker,K8s\nNginx,500.000,3000.000\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
