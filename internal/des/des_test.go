package des

import (
	"math"
	"math/rand"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(5, func(float64) { order = append(order, 2) })
	s.At(1, func(float64) { order = append(order, 1) })
	s.At(9, func(float64) { order = append(order, 3) })
	if n := s.RunAll(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Errorf("order = %v", order)
		}
	}
	if s.Now() != 9 {
		t.Errorf("Now = %g, want 9", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(3, func(float64) { order = append(order, i) })
	}
	s.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New()
	var fired []float64
	s.At(1, func(now float64) {
		fired = append(fired, now)
		s.After(2, func(now float64) { fired = append(fired, now) })
	})
	s.RunAll()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Errorf("fired = %v, want [1 3]", fired)
	}
}

func TestRunUntilStops(t *testing.T) {
	s := New()
	ran := 0
	s.At(1, func(float64) { ran++ })
	s.At(5, func(float64) { ran++ })
	s.At(10, func(float64) { ran++ })
	if n := s.Run(5); n != 2 {
		t.Errorf("Run(5) executed %d, want 2 (event at exactly 5 runs)", n)
	}
	if n := s.RunAll(); n != 1 {
		t.Errorf("RunAll after Run(5) executed %d, want 1", n)
	}
	if ran != 3 {
		t.Errorf("total = %d, want 3", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func(float64) {})
	s.Run(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for scheduling in the past")
		}
	}()
	s.At(1, func(float64) {})
}

func TestNilActionPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil action")
		}
	}()
	s.At(1, nil)
}

func TestRunAdvancesClockToUntil(t *testing.T) {
	s := New()
	s.Run(42)
	if s.Now() != 42 {
		t.Errorf("Now = %g, want 42", s.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	s := New()
	s.At(1, func(float64) {})
	s.At(2, func(float64) {})
	s.RunAll()
	if s.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", s.Steps())
	}
}

func TestClassOrderingAtEqualTimes(t *testing.T) {
	s := New()
	var order []string
	s.AtClass(5, 1, func(float64) { order = append(order, "start") })
	s.AtClass(5, 0, func(float64) { order = append(order, "end") })
	s.RunAll()
	if len(order) != 2 || order[0] != "end" || order[1] != "start" {
		t.Errorf("order = %v, want [end start]", order)
	}
}

// TestHeapOrderMatchesSort runs thousands of events with tied times and
// classes, some scheduled by earlier events for later instants, and
// checks that they fire in (time, class, scheduling order).
func TestHeapOrderMatchesSort(t *testing.T) {
	type key struct {
		t     float64
		class int
		seq   int
	}
	r := rand.New(rand.NewSource(3))
	s := New()
	var scheduled, fired []key
	var schedule func(at float64, class int)
	schedule = func(at float64, class int) {
		k := key{at, class, len(scheduled)}
		scheduled = append(scheduled, k)
		s.AtClass(at, class, func(now float64) {
			fired = append(fired, k)
			if len(scheduled) < 5000 && r.Intn(3) == 0 {
				schedule(now+float64(1+r.Intn(4)), r.Intn(3))
			}
		})
	}
	for i := 0; i < 2000; i++ {
		schedule(float64(r.Intn(50)), r.Intn(3))
	}
	s.RunAll()
	if len(fired) != len(scheduled) {
		t.Fatalf("fired %d of %d events", len(fired), len(scheduled))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.t > b.t || a.t == b.t && (a.class > b.class || a.class == b.class && a.seq > b.seq) {
			t.Fatalf("event %d %+v fired before %+v", i, a, b)
		}
	}
}
