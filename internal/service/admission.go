// Multi-tenant admission: a token bucket per tenant enforces fair share
// (a greedy client exhausts its own bucket, never another tenant's), and
// queue-depth load shedding turns a saturated shard's backpressure into
// HTTP 429 + Retry-After instead of a blocked connection. Both layers
// answer before any workload bytes are decoded or any engine slot is
// taken, so overload costs the server almost nothing.

package service

import (
	"time"

	"github.com/sram-align/xdropipu/internal/engine"
)

// tenantState is one tenant's admission bucket plus lifetime counters,
// all guarded by Server.mu.
type tenantState struct {
	tokens float64
	last   time.Time

	Submitted   int64
	Completed   int64
	Failed      int64
	Cancelled   int64
	Shed        int64
	RateLimited int64
	Live        int
}

// maxTenants caps the distinct tenant names the server keeps state for.
// X-Tenant is a client-chosen string: without a cap, cycling names would
// mint a fresh full bucket per request — bypassing the fair-share rate —
// and grow the map and /v1/metrics' label set forever. Names arriving
// once the cap is reached share the overflowTenant bucket and label.
// Tenant state never expires, so a name resolves the same way for its
// jobs' whole life.
const (
	maxTenants     = 1024
	overflowTenant = "_overflow"
)

func (s *Server) tenantLocked(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil && len(s.tenants) >= maxTenants {
		name = overflowTenant
		ts = s.tenants[name]
	}
	if ts == nil {
		ts = &tenantState{tokens: float64(s.cfg.TenantBurst), last: time.Now()}
		s.tenants[name] = ts
	}
	return ts
}

// admitTenant draws one token from the tenant's bucket. With no rate
// configured every submission is admitted. On refusal it returns how
// long until the bucket refills one token — the Retry-After value.
func (s *Server) admitTenant(name string) (bool, time.Duration) {
	if s.cfg.TenantRatePerSec <= 0 {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(name)
	now := time.Now()
	ts.tokens += now.Sub(ts.last).Seconds() * s.cfg.TenantRatePerSec
	if burst := float64(s.cfg.TenantBurst); ts.tokens > burst {
		ts.tokens = burst
	}
	ts.last = now
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	ts.RateLimited++
	need := (1 - ts.tokens) / s.cfg.TenantRatePerSec
	d := time.Duration(need * float64(time.Second))
	// High refill rates derive sub-second waits, which truncate to a
	// 0-second Retry-After header and hot-loop shed clients. Clamp at
	// the source so the header, the error body and every other consumer
	// agree on a positive wait.
	if d < time.Second {
		d = time.Second
	}
	return false, d
}

// refundTenant returns the token admitTenant drew, for a request that is
// then refused for a reason other than the tenant's own rate (malformed
// body, saturated shard): those refusals must not drain the bucket.
func (s *Server) refundTenant(name string) {
	if s.cfg.TenantRatePerSec <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(name)
	ts.tokens = min(ts.tokens+1, float64(s.cfg.TenantBurst))
}

func (s *Server) tenantShed(name string) {
	s.mu.Lock()
	s.tenantLocked(name).Shed++
	s.mu.Unlock()
}

// retryAfterFromStats derives a shed response's Retry-After from the
// shard's live-job excess over its shedding threshold: one second per
// queued-over-capacity job, capped at 30s. Deeper backlogs push clients
// further out, spreading the retry wave.
func retryAfterFromStats(st engine.Stats, maxLive int) time.Duration {
	excess := st.JobsLive - maxLive + 1
	if excess < 1 {
		excess = 1
	}
	d := time.Duration(excess) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}
