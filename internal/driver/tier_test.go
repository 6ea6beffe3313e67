package driver

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/workload"
)

// TestKernelFingerprintSeparatesTiers: the tier is part of the kernel
// fingerprint — distinct tiers never alias.
func TestKernelFingerprintSeparatesTiers(t *testing.T) {
	base := goldenConfigs()["uniform-nopart"].cfg.Normalized()
	seen := map[uint64]core.Tier{}
	for _, tier := range []core.Tier{core.TierWide, core.TierNarrow, core.TierAuto} {
		cfg := base
		cfg.Kernel.Params.Tier = tier
		cfg = cfg.Normalized()
		fp := KernelFingerprint(cfg.Kernel)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("tiers %v and %v share fingerprint %x", prev, tier, fp)
		}
		seen[fp] = tier
	}
}

// TestKernelTierPromotionDriverPath forces int16 saturation through the
// full driver stack: a +9 match over ~4.4k identical flanks accumulates
// past the saturation guard, so TierNarrow must promote every extension
// and still report alignments bit-identical to the wide tier, while
// TierAuto's headroom proof rejects the narrow kernel outright and runs
// wide with zero promotions.
func TestKernelTierPromotionDriverPath(t *testing.T) {
	seq := make([]byte, 9000)
	for i := range seq {
		seq[i] = "ACGT"[i%4]
	}
	d := workload.MustPack("sat", [][]byte{seq, seq},
		[]workload.Comparison{{H: 0, V: 1, SeedH: 4480, SeedV: 4480, SeedLen: 17}}, false)
	cfg := Config{
		IPUs: 1, Model: platform.GC200, TilesPerIPU: 4,
		Kernel: ipukernel.Config{
			Params: core.Params{Scorer: scoring.NewSimple(9, -9), Gap: -3, X: 50, DeltaB: 256},
		},
	}
	wide, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Kernel.Params.Tier = core.TierNarrow
	prom, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "promoted", prom.Results, wide.Results)
	if prom.PromotedExtensions != 2 || prom.NarrowExtensions != 0 {
		t.Errorf("narrow tier: promoted %d narrow %d, want both extensions promoted",
			prom.PromotedExtensions, prom.NarrowExtensions)
	}

	cfg.Kernel.Params.Tier = core.TierAuto
	auto, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "auto", auto.Results, wide.Results)
	if auto.PromotedExtensions != 0 || auto.NarrowExtensions != 0 || auto.WideExtensions != 2 {
		t.Errorf("auto tier on saturating scores: narrow %d wide %d promoted %d, want wide-only",
			auto.NarrowExtensions, auto.WideExtensions, auto.PromotedExtensions)
	}
}

// TestRunRejectsUnknownKnobValues: a tier outside its three values would
// otherwise run as wide under a fingerprint of its own, splitting the
// cache between identical results; traceback under AlgoAffine, which is
// score-only, fails before any batch runs.
func TestRunRejectsUnknownKnobValues(t *testing.T) {
	d := readsData(t, 24, 8)
	tier := testCfg(1, true)
	tier.Kernel.Params.Tier = core.TierAuto + 1
	affine := testCfg(1, true)
	affine.Traceback = true
	affine.Kernel.Params.Algo, affine.Kernel.Params.GapOpen = core.AlgoAffine, -2
	for name, cfg := range map[string]Config{"tier": tier, "affine traceback": affine} {
		if _, err := Run(d, cfg); err == nil {
			t.Errorf("%s: Run succeeded, want an error", name)
		}
	}
}
