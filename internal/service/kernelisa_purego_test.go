//go:build purego

package service_test

import (
	"net/http/httptest"
	"testing"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
)

// TestServiceStatsKernelISAPurego: a purego build has no vector row body,
// and /v1/stats says so.
func TestServiceStatsKernelISAPurego(t *testing.T) {
	svc := service.New(service.Config{EngineOptions: []engine.Option{engine.WithDriverConfig(testCfg(1))}})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var stats service.StatsReply
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.KernelISA != "generic" {
		t.Fatalf("kernelISA = %q under -tags purego, want \"generic\"", stats.KernelISA)
	}
}
