// Package clock is the serving layers' one source of wall time, so that
// their tests can step a Manual clock instead of waiting.
package clock

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"
)

// Clock reads the time and arms callbacks.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is an armed callback; *time.Timer is one.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Sleep waits d on c, or until ctx is done and returns its error.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	done := make(chan struct{})
	defer c.AfterFunc(d, func() { close(done) }).Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Manual moves only when Advance moves it; its zero value reads the Unix
// epoch.
type Manual struct {
	mu  sync.Mutex
	now time.Duration
	due []*manualTimer // armed; Advance sorts them by deadline, ties in arming order
}

type manualTimer struct {
	m  *Manual
	at time.Duration
	f  func()
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Unix(0, int64(m.now))
}

func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f}
	m.arm(t, d, true)
	return t
}

// Advance moves the clock d on and runs each callback that falls due,
// earliest first, unlocked, with the clock at its deadline — those armed
// during the step too. It returns how many timers are left armed, so
// Advance(0) shows a test whether what it drives has armed one yet.
func (m *Manual) Advance(d time.Duration) (armed int) {
	m.mu.Lock()
	for end := m.now + d; ; {
		slices.SortStableFunc(m.due, func(a, b *manualTimer) int { return cmp.Compare(a.at, b.at) })
		if len(m.due) == 0 || m.due[0].at > end {
			m.now, armed = end, len(m.due)
			m.mu.Unlock()
			return armed
		}
		t := m.due[0]
		m.due, m.now = m.due[1:], max(m.now, t.at)
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
}

func (t *manualTimer) Stop() bool                 { return t.m.arm(t, 0, false) }
func (t *manualTimer) Reset(d time.Duration) bool { return t.m.arm(t, d, true) }

// arm disarms t, re-arms it d from now if on is set, and reports whether
// it was armed.
func (m *Manual) arm(t *manualTimer, d time.Duration, on bool) (was bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.due)
	m.due = slices.DeleteFunc(m.due, func(p *manualTimer) bool { return p == t })
	was = len(m.due) < n
	if on {
		t.at, m.due = m.now+d, append(m.due, t)
	}
	return was
}
