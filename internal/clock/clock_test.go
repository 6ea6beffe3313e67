package clock_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
)

// TestManualFiresInDeadlineOrder: a step runs every callback that falls
// due, earliest deadline first whatever the arming order, each reading
// its own deadline; the rest stay pending.
func TestManualFiresInDeadlineOrder(t *testing.T) {
	var m clock.Manual // the zero value is ready
	start := m.Now()
	var got []string
	for _, d := range []int{30, 10, 50, 20} {
		m.AfterFunc(time.Duration(d)*time.Millisecond, func() {
			got = append(got, fmt.Sprint(d, "@", m.Now().Sub(start).Milliseconds()))
		})
	}
	if n := m.Advance(0); n != 4 || len(got) != 0 {
		t.Fatalf("Advance(0) fired %v, left %d pending; want nothing fired, 4 pending", got, n)
	}
	if n := m.Advance(30 * time.Millisecond); n != 1 {
		t.Fatalf("%d timers pending after 30ms, want 1", n)
	}
	if want := []string{"10@10", "20@20", "30@30"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if d := m.Now().Sub(start); d != 30*time.Millisecond {
		t.Fatalf("clock reads %v after the step, want 30ms", d)
	}
	m.Advance(20 * time.Millisecond)
	if want := []string{"10@10", "20@20", "30@30", "50@50"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestManualStopAndReset: a stopped timer never fires and reports that it
// was pending once; a reset timer fires at its new deadline, counted from
// the reset, and reports whether it was still pending.
func TestManualStopAndReset(t *testing.T) {
	var m clock.Manual
	fired := map[string]int{}
	stopped := m.AfterFunc(time.Second, func() { fired["stopped"]++ })
	moved := m.AfterFunc(time.Second, func() { fired["moved"]++ })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop of a pending timer must report true once, then false")
	}
	m.Advance(500 * time.Millisecond)
	if !moved.Reset(time.Second) {
		t.Fatal("Reset of a pending timer reported it idle")
	}
	if m.Advance(999*time.Millisecond) != 1 || fired["moved"] != 0 {
		t.Fatal("a reset timer fired at its old deadline")
	}
	if m.Advance(time.Millisecond) != 0 || fired["moved"] != 1 {
		t.Fatalf("a reset timer did not fire at its new deadline: %v", fired)
	}
	if moved.Reset(time.Millisecond) || !moved.Stop() {
		t.Fatal("Reset of a fired timer must report false and re-arm it")
	}
	m.Advance(time.Hour)
	if fired["stopped"] != 0 || fired["moved"] != 1 {
		t.Fatalf("fired %v, want the stopped timer never and the moved one once", fired)
	}
}

// TestManualCallbackArmsTimer: a timer armed by a callback counts from
// the callback's deadline and fires in the same step when it falls due
// inside it; one past the step stays pending.
func TestManualCallbackArmsTimer(t *testing.T) {
	var m clock.Manual
	start := m.Now()
	var at []time.Duration
	var tick func()
	tick = func() {
		at = append(at, m.Now().Sub(start))
		m.AfterFunc(40*time.Millisecond, tick)
	}
	m.AfterFunc(40*time.Millisecond, tick)
	if n := m.Advance(100 * time.Millisecond); n != 1 {
		t.Fatalf("%d timers pending, want the next tick", n)
	}
	if want := []time.Duration{40 * time.Millisecond, 80 * time.Millisecond}; !slices.Equal(at, want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	m.Advance(20 * time.Millisecond)
	if len(at) != 3 || at[2] != 120*time.Millisecond {
		t.Fatalf("ticks at %v, want a third at 120ms", at)
	}
}

// TestSleep: Sleep returns when its clock passes the wait, and returns the
// context's error, disarming its timer, when the context ends first.
func TestSleep(t *testing.T) {
	var m clock.Manual
	done := make(chan error)
	go func() { done <- clock.Sleep(context.Background(), &m, time.Minute) }()
	for m.Advance(0) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m.Advance(time.Minute)
	if err := <-done; err != nil {
		t.Fatalf("Sleep = %v after its wait, want nil", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- clock.Sleep(ctx, &m, time.Minute) }()
	for m.Advance(0) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v on cancel, want context.Canceled", err)
	}
	if n := m.Advance(0); n != 0 {
		t.Fatalf("a cancelled Sleep left %d timers armed", n)
	}
	if err := clock.Sleep(context.Background(), clock.Real, time.Millisecond); err != nil {
		t.Fatalf("Sleep on the wall clock = %v", err)
	}
}
