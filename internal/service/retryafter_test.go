// White-box admission regression tests. The 0-second Retry-After bug: a
// high-refill tenant bucket derives a sub-second wait, which used to
// truncate to a "Retry-After: 0" header and hot-loop shed clients. The
// unbounded-tenant bug: every distinct X-Tenant value used to mint
// permanent state and a fresh full bucket.

package service

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/engine"
)

// TestAdmitTenantRefusalAlwaysAtLeastOneSecond drains a burst-1 bucket
// at a refill rate fast enough that the raw token arithmetic yields a
// millisecond-scale wait, and asserts every refusal still reports at
// least one full second.
func TestAdmitTenantRefusalAlwaysAtLeastOneSecond(t *testing.T) {
	s := &Server{
		cfg:     Config{TenantRatePerSec: 500, TenantBurst: 1},
		tenants: make(map[string]*tenantState),
		clk:     new(clock.Manual),
	}
	ok, d := s.admitTenant("hot")
	if !ok || d != 0 {
		t.Fatalf("first draw refused: ok=%v d=%v", ok, d)
	}
	refused := 0
	for i := 0; i < 50; i++ {
		ok, d := s.admitTenant("hot")
		if ok {
			continue
		}
		refused++
		if d < time.Second {
			t.Fatalf("refusal %d derived a sub-second Retry-After: %v", i, d)
		}
	}
	if refused == 0 {
		t.Fatal("bucket at 500/s burst 1 never refused; test exercised nothing")
	}
}

// TestRetryAfterFromStatsPositive: the shed-path derivation must also
// stay ≥1s even when the shard is barely over (or under) its threshold.
func TestRetryAfterFromStatsPositive(t *testing.T) {
	for _, live := range []int{0, 1, 7, 8, 9, 100} {
		d := retryAfterFromStats(engine.Stats{JobsLive: live}, 8)
		if d < time.Second {
			t.Fatalf("JobsLive=%d: Retry-After %v below one second", live, d)
		}
		if d > 30*time.Second {
			t.Fatalf("JobsLive=%d: Retry-After %v above the 30s cap", live, d)
		}
	}
}

// TestTenantCapSharesOverflowBucket: X-Tenant is client-chosen, so
// cycling names must neither grow tenant state (and the Prometheus label
// set rendered from it) without bound nor mint a fresh full bucket per
// name — past the cap every new name draws from one shared bucket.
func TestTenantCapSharesOverflowBucket(t *testing.T) {
	s := &Server{
		cfg:     Config{TenantRatePerSec: 0.001, TenantBurst: 2},
		tenants: make(map[string]*tenantState),
		clk:     new(clock.Manual),
	}
	admitted := 0
	for i := 0; i < 2*maxTenants; i++ {
		if ok, _ := s.admitTenant(fmt.Sprintf("t%05d", i)); ok {
			admitted++
		}
	}
	if n := len(s.tenants); n > maxTenants+1 {
		t.Fatalf("%d distinct names left %d tenant entries, cap is %d+1", 2*maxTenants, n, maxTenants)
	}
	// The first maxTenants names each get their own bucket; the rest share
	// one burst of 2, which the stopped clock never refills.
	if want := maxTenants + 2; admitted != want {
		t.Fatalf("admitted %d of %d one-shot names, want %d (cap + one overflow burst)", admitted, 2*maxTenants, want)
	}
	if s.tenants[overflowTenant] == nil || s.tenants[overflowTenant].RateLimited != int64(maxTenants-2) {
		t.Fatalf("overflow bucket did not rate-limit the excess names: %+v", s.tenants[overflowTenant])
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, nil)
	if n := strings.Count(rec.Body.String(), "xdropipu_service_jobs_live{tenant="); n > maxTenants+1 {
		t.Fatalf("/v1/metrics renders %d tenant label values, cap is %d+1", n, maxTenants)
	}
	// A name that owns a bucket keeps it after the cap is reached.
	if ok, _ := s.admitTenant("t00000"); !ok {
		t.Fatal("an established tenant lost its own bucket once the cap filled")
	}
}

// TestServiceTenantNameValidUTF8: X-Tenant is cut to 64 bytes on a rune
// boundary and comes back valid UTF-8, so /v1/metrics (which writes the
// label raw) and /v1/stats (whose JSON would turn a split rune into
// U+FFFD) name the tenant alike. A name that is already valid and short
// enough is kept as sent.
func TestServiceTenantNameValidUTF8(t *testing.T) {
	for _, tc := range []struct{ header, want string }{
		{"", "default"},
		{"acme", "acme"},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("é", 32), strings.Repeat("é", 32)},
		{strings.Repeat("a", 63) + "é", strings.Repeat("a", 63)},
		{strings.Repeat("a", 62) + "€", strings.Repeat("a", 62)},
		{strings.Repeat("a", 61) + "€x", strings.Repeat("a", 61) + "€"},
		{strings.Repeat("日本", 20), strings.Repeat("日本", 10) + "日"},
		{"bad\xffname", "bad\uFFFDname"},
		{strings.Repeat("a", 62) + "\xff\xfe", strings.Repeat("a", 62)},
	} {
		r := httptest.NewRequest("POST", "/v1/jobs", nil)
		if tc.header != "" {
			r.Header.Set("X-Tenant", tc.header)
		}
		got := tenantName(r)
		if !utf8.ValidString(got) || len(got) > 64 {
			t.Errorf("X-Tenant %q: tenant %q is %d bytes, valid UTF-8 %v", tc.header, got, len(got), utf8.ValidString(got))
		}
		if got != tc.want {
			t.Errorf("X-Tenant %q: tenant %q, want %q", tc.header, got, tc.want)
		}
	}
}
