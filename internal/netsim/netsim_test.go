package netsim

import "testing"

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	mustAt := func(tm float64, id int) {
		t.Helper()
		if _, err := s.At(tm, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	mustAt(3, 3)
	mustAt(1, 1)
	mustAt(2, 2)
	// Same time: schedule order wins.
	mustAt(2, 4)
	s.RunAll()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.EventsRun() != 4 {
		t.Fatalf("EventsRun = %d", s.EventsRun())
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := New()
	var times []float64
	if _, err := s.At(1, func() {
		times = append(times, s.Now())
		if _, err := s.After(0.5, func() { times = append(times, s.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 1.5 {
		t.Fatalf("times = %v", times)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	s := New()
	fired := false
	if _, err := s.At(10, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	end := s.Run(5)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 5 {
		t.Fatalf("Run returned %v, want horizon 5", end)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	// Continue past it.
	s.Run(20)
	if !fired {
		t.Fatal("event did not fire after extending horizon")
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	if _, err := s.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if s.Now() != 5 {
		t.Fatalf("Now = %v", s.Now())
	}
	if _, err := s.At(1, func() {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if _, err := s.After(-1, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
	if _, err := s.At(6, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e, err := s.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	s.Cancel(nil)
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.EventsRun() != 0 {
		t.Fatalf("EventsRun = %d", s.EventsRun())
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := New()
		var out []float64
		for i := 0; i < 1000; i++ {
			tm := float64((i * 7919) % 100)
			if _, err := s.At(tm, func() { out = append(out, s.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		s.RunAll()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
	// Monotone non-decreasing times.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("time went backwards")
		}
	}
}

func TestUninstrumentedSimUnaffected(t *testing.T) {
	s := New()
	fired := false
	if _, err := s.After(1, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if !fired {
		t.Fatal("event did not fire")
	}
}

func TestSchedulePooledOrdering(t *testing.T) {
	// Pooled and handle-returning events share one (time, seq) order.
	s := New()
	var order []int
	if err := s.Schedule(2, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(1, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(1, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePooledRecycles(t *testing.T) {
	// A self-scheduling chain on the pooled path should settle on a handful
	// of recycled records rather than one allocation per event.
	s := New()
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if s.Now() < 1000 {
			if err := s.ScheduleAfter(1, hop); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Schedule(0, hop); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if hops != 1001 {
		t.Fatalf("hops = %d, want 1001", hops)
	}
	// The chain keeps one event in flight (each hop reuses its predecessor's
	// record), so the pool settles at two records: the steady-state one plus
	// the final hop's, recycled with nothing left to schedule.
	if len(s.free) != 2 {
		t.Fatalf("free list holds %d records, want 2", len(s.free))
	}
}

func TestScheduleValidation(t *testing.T) {
	s := New()
	if err := s.Schedule(5, func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if err := s.Schedule(1, func() {}); err == nil {
		t.Fatal("past pooled scheduling accepted")
	}
	if err := s.ScheduleAfter(-1, func() {}); err == nil {
		t.Fatal("negative pooled delay accepted")
	}
	if err := s.Schedule(6, nil); err == nil {
		t.Fatal("nil pooled fn accepted")
	}
}
