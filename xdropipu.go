// Package xdropipu is the public face of this repository: a Go
// reproduction of "Space Efficient Sequence Alignment for SRAM-Based
// Computing: X-Drop on the Graphcore IPU" (SC 2023).
//
// It re-exports the library's main entry points:
//
//   - the memory-restricted X-Drop aligner and its variants (Align,
//     ExtendSeed, Params);
//   - traceback (TracebackSeed, IPUConfig.Traceback): one linear-gap
//     recording sweep emits each extension's CIGAR, fused into the
//     scoring pass when its direction arena is small and replayed after
//     it otherwise; AlgoAffine is score-only;
//   - the persistent asynchronous Engine (NewEngine, Submit, Job) —
//     the service interface for concurrent clients;
//   - the one-shot simulated IPU run (RunOnIPU with IPUConfig), one
//     synchronous call into the driver;
//   - the ELBA and PASTIS pipelines (AssembleELBA, SearchPASTIS);
//   - the CPU/GPU baselines of the paper's evaluation.
//
// See README.md for a quickstart and DESIGN.md for the layer diagram and
// system inventory.
package xdropipu

import (
	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/backend"
	"github.com/sram-align/xdropipu/internal/baselines"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/elba"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/pastis"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Core alignment API.
type (
	// Params configures an X-Drop extension (scorer, gap, X, δb, variant).
	Params = core.Params
	// Result is a single extension outcome with its execution trace.
	Result = core.Result
	// SeedResult is a two-sided seed extension outcome.
	SeedResult = core.SeedResult
	// Seed anchors a seed-and-extend alignment.
	Seed = core.Seed
	// Workspace provides allocation-free repeated alignment.
	Workspace = core.Workspace
	// Algo selects an X-Drop variant.
	Algo = core.Algo
)

// X-Drop variants.
const (
	// AlgoRestricted2 is the paper's memory-restricted algorithm (§3).
	AlgoRestricted2 = core.AlgoRestricted2
	// AlgoStandard3 is Zhang's three-antidiagonal algorithm.
	AlgoStandard3 = core.AlgoStandard3
	// AlgoAffine is the affine-gap (ksw2-style) variant. It is
	// score-only: traceback refuses it.
	AlgoAffine = core.AlgoAffine
)

// Align runs one semi-global X-Drop extension of h against v.
func Align(h, v []byte, p Params) Result {
	return core.Align(core.NewView(h), core.NewView(v), p)
}

// ExtendSeed aligns two sequences through a shared seed: a left and a
// right X-Drop extension around it (§4.1.1).
func ExtendSeed(h, v []byte, s Seed, p Params) (SeedResult, error) {
	return core.ExtendSeed(h, v, s, p)
}

// Traceback and CIGAR reporting.
type (
	// Cigar is an alignment's edit script ("12=1X3D…") over the
	// {=, X, I, D} operation set: immutable, comparable, validated.
	Cigar = alignment.Cigar
	// CigarOp is one CIGAR operation.
	CigarOp = alignment.Op
	// CigarRun is one maximal run of a CIGAR operation.
	CigarRun = alignment.Run
	// TracedAlignment is a full traceback outcome: aligned spans in
	// sequence coordinates plus the Cigar covering them.
	TracedAlignment = alignment.Alignment
)

// CIGAR operations.
const (
	// CigarMatch ('=') aligns two equal symbols.
	CigarMatch = alignment.OpMatch
	// CigarMismatch ('X') aligns two differing symbols.
	CigarMismatch = alignment.OpMismatch
	// CigarIns ('I') consumes one H symbol against a gap in V.
	CigarIns = alignment.OpIns
	// CigarDel ('D') consumes one V symbol against a gap in H.
	CigarDel = alignment.OpDel
)

// ParseCigar validates s and returns it as a Cigar.
func ParseCigar(s string) (Cigar, error) { return alignment.Parse(s) }

// CigarScore recomputes the score a Cigar implies over the two aligned
// fragments — the independent oracle that pins traceback correctness:
// for any CIGAR this library emits, the reconstructed score bit-matches
// the score-only kernel.
func CigarScore(h, v []byte, c Cigar, p Params) (int, error) {
	return alignment.ScoreOf(h, v, c, p.Scorer, p.Gap, p.GapOpen)
}

// TracebackSeed runs the two-pass seed extension: a SeedResult whose
// scores and coordinates bit-match ExtendSeed (its Stats are zero except
// Clamped — execution traces belong to the score pass), plus the full
// alignment with its CIGAR. Fleet-scale callers enable
// IPUConfig.Traceback instead and read AlignOut.Cigar per comparison.
func TracebackSeed(h, v []byte, s Seed, p Params) (SeedResult, TracedAlignment, error) {
	var w core.Workspace
	return w.TracebackSeed(h, v, s, p)
}

// Scoring schemes.
var (
	// DNAScorer is the +1/−1 scheme of the paper's DNA experiments.
	DNAScorer = scoring.DNADefault
	// Blosum62 is the protein substitution matrix PASTIS uses.
	Blosum62 = scoring.Blosum62
)

// Workload types shared by the execution stack and the pipelines.
type (
	// Dataset is a sequence pool plus planned comparisons: an Arena and a
	// CmpPlan over it under a name, built once (Arena.NewDataset, or the
	// generators and pipelines) and immutable afterwards. Read sequences
	// with NumSeqs/SeqLen/Seq; derive a different comparison set over the
	// same pool with WithComparisons rather than assigning Comparisons.
	Dataset = workload.Dataset
	// Comparison is one planned seed extension.
	Comparison = workload.Comparison
	// Alignment is one comparison's result in dataset coordinates.
	Alignment = workload.Alignment
	// Arena is the packed sequence pool Ω: a spine of content-interned
	// slabs shared zero-copy by every concurrent job. Pools larger than
	// one slab roll across slabs (SetMaxSlabBytes tunes the cap), and
	// sealed slabs can spill to disk (EnableSpill/Seal/Spill) with the
	// driver pinning each batch's slab set back in around execution.
	Arena = workload.Arena
	// SeqRef is a sequence span inside an arena spine: slab index plus
	// exact 32-bit offset and length within that slab.
	SeqRef = workload.SeqRef
	// CmpPlan is the columnar (struct-of-arrays) comparison table.
	CmpPlan = workload.Plan
	// ExtensionKey is the content-addressed identity of one seed
	// extension (sequence digests, lengths, seed geometry), equal across
	// the jobs of one process whenever the bytes and seed match; digests
	// are keyed per process, so keys from two processes never compare.
	ExtensionKey = workload.ExtensionKey
	// ResultCacheKey is the full result-cache key: an ExtensionKey plus
	// the kernel-configuration fingerprint, so one cache shared across
	// differently-configured runs can never serve wrong alignments.
	ResultCacheKey = driver.CacheKey
	// ResultCache memoises finished extensions across jobs; implement it
	// to plug a custom cache into IPUConfig.Cache (WithResultCache
	// provides the engine's bounded, recency-approximating sharded cache).
	// A cache that also has GetBatch(keys, outs, hit) (hits int) is asked
	// once per plan instead of once per extension.
	ResultCache = driver.ResultCache
)

// NewArena returns an empty sequence arena with capacity hints (slab
// bytes, sequence slots). Fill it with TryAppend/AppendFasta, build a
// CmpPlan with PlanOf, then Arena.NewDataset yields the dataset every
// engine submission can share without duplicating sequence memory.
// NewDataset touches no sequence bytes, so slabs stay spillable
// (EnableSpill/Seal/Spill) for pools that outgrow host RAM; stop
// appending once the dataset exists.
func NewArena(sizeHint, seqHint int) *Arena {
	return workload.NewArena(sizeHint, seqHint)
}

// PlanOf builds a columnar comparison plan from comparison rows.
func PlanOf(cmps []Comparison) *CmpPlan { return workload.PlanOf(cmps) }

// Alphabet reports which byte symbols are valid for a sequence kind
// (Arena.AppendFasta validates against one).
type Alphabet = seqio.Alphabet

// FASTA alphabets.
var (
	// DNAAlphabet accepts ACGT plus N, either case.
	DNAAlphabet = seqio.DNAAlphabet
	// ProteinAlphabet accepts the 24 BLOSUM62 symbols.
	ProteinAlphabet = seqio.ProteinAlphabet
)

// Simulated IPU execution.
type (
	// IPUConfig configures the multi-IPU driver (devices, partitioning,
	// kernel options).
	IPUConfig = driver.Config
	// IPUReport is the outcome of a driver run.
	IPUReport = driver.Report
	// KernelConfig selects the on-tile codelet options (LR splitting,
	// work stealing, dual issue; §4.1).
	KernelConfig = ipukernel.Config
	// IPUModel describes an IPU generation.
	IPUModel = platform.IPUModel
)

// IPU hardware models (§2.1.1).
var (
	// GC200 is the Mk2 IPU.
	GC200 = platform.GC200
	// BOW is the Bow IPU.
	BOW = platform.BOW
)

// Asynchronous service interface.
type (
	// Engine is a persistent asynchronous alignment service: it owns the
	// modeled device fleet and accepts concurrent Submit calls, fairly
	// interleaving their batches.
	Engine = engine.Engine
	// Job is one submission's handle (Wait for the report, Results to
	// stream batches as they complete).
	Job = engine.Job
	// EngineUpdate is one streamed batch of a job.
	EngineUpdate = engine.Update
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// EngineStats is a snapshot of engine-lifetime counters.
	EngineStats = engine.Stats
)

// Fault tolerance.
type (
	// FaultPlan injects deterministic, seeded faults at the batch
	// execution boundary — the chaos substrate behind the engine's
	// retry/hedge/degradation machinery. Build one with NewFaultPlan and
	// install it as IPUConfig.Faults.
	FaultPlan = driver.FaultPlan
	// FaultSpec sets a fault plan's injection rates (transient,
	// permanent, straggler) and straggler delay.
	FaultSpec = driver.FaultSpec
	// FaultError is the error an injected fault raises for a failed
	// batch execution; classify it with errors.As and Transient.
	FaultError = driver.FaultError
	// FaultKind classifies one injected fault.
	FaultKind = driver.FaultKind
	// DegradedMode selects what the engine does with a batch that
	// exhausted its fault tolerance (see WithDegradedMode).
	DegradedMode = engine.DegradedMode
)

// Fault kinds.
const (
	// FaultNone leaves an execution untouched.
	FaultNone = driver.FaultNone
	// FaultTransient fails one attempt; a retry can succeed.
	FaultTransient = driver.FaultTransient
	// FaultPermanent fails every attempt of a batch.
	FaultPermanent = driver.FaultPermanent
	// FaultStraggler delays an execution without failing it.
	FaultStraggler = driver.FaultStraggler
)

// Degraded modes.
const (
	// DegradeFail fails the whole job with the batch's error (default).
	DegradeFail = engine.DegradeFail
	// DegradeFallback re-runs exhausted batches on the reference host
	// path; the report stays bit-identical to fault-free execution.
	DegradeFallback = engine.DegradeFallback
	// DegradePartial completes exhausted batches as Failed placeholders
	// and counts them in IPUReport.PartialFailures.
	DegradePartial = engine.DegradePartial
)

// NewFaultPlan returns a seeded fault plan; the zero spec injects
// nothing. Decisions are a pure function of (seed, batch, attempt), so
// a plan replays identically run after run.
func NewFaultPlan(seed int64, spec FaultSpec) *FaultPlan {
	return driver.NewFaultPlan(seed, spec)
}

// ErrJobDeadline settles a job whose WithJobDeadline expired under
// DegradeFail; it wraps context.DeadlineExceeded.
var ErrJobDeadline = engine.ErrDeadline

// ErrEngineClosed is returned by Engine.Submit after Close.
var ErrEngineClosed = engine.ErrClosed

// Engine construction options. The run configuration (fleet, plan,
// kernel, traceback, fault injection) travels whole in WithIPUConfig; the
// rest set engine policy only.
var (
	// WithIPUConfig sets the run configuration: an IPUConfig with the
	// device count, partitioning, kernel, traceback and fault plan.
	WithIPUConfig = engine.WithDriverConfig
	// WithResultCache shares a bounded, recency-approximating cache of
	// finished extensions across every job the engine serves (implies
	// dedup); hit/miss/evict counters surface in EngineStats.
	WithResultCache = engine.WithResultCache
	// WithRetry re-issues batches whose execution failed transiently,
	// with capped exponential backoff: max retries per batch, budget
	// retries per job (0 = uncapped).
	WithRetry = engine.WithRetry
	// WithRetryBackoff shapes the retry delay (base, ceiling).
	WithRetryBackoff = engine.WithRetryBackoff
	// WithJobDeadline bounds every submission's wall-clock completion;
	// near the deadline idle executors hedge the slowest outstanding
	// batch (first result wins), and an expired job settles per
	// WithDegradedMode.
	WithJobDeadline = engine.WithJobDeadline
	// WithDegradedMode selects how exhausted batches complete:
	// DegradeFail, DegradeFallback or DegradePartial.
	WithDegradedMode = engine.WithDegradedMode
	// WithQueueDepth bounds in-flight submissions (backpressure).
	WithQueueDepth = engine.WithQueueDepth
	// WithExecutors sets the host-side executor pool width.
	WithExecutors = engine.WithExecutors
)

// NewEngine starts a persistent asynchronous alignment engine. Close it
// when done:
//
//	eng := xdropipu.NewEngine(xdropipu.WithIPUConfig(xdropipu.IPUConfig{
//		IPUs: 4, Kernel: xdropipu.KernelConfig{Params: p},
//	}))
//	defer eng.Close()
//	job, err := eng.Submit(ctx, dataset)
//	for u := range job.Results() { ... } // streamed batch results
//	report, err := job.Wait(ctx)
func NewEngine(opts ...EngineOption) *Engine {
	return engine.New(opts...)
}

// RunOnIPU aligns every comparison of a dataset on the simulated IPU
// system and returns the report (results, modeled times, traffic). It is
// the simple synchronous path: the driver plans, executes and schedules
// the one dataset, with no engine in between. Long-lived callers with
// concurrent work should hold a NewEngine instead.
func RunOnIPU(d *Dataset, cfg IPUConfig) (*IPUReport, error) {
	return driver.Run(d, cfg)
}

// Networked service: the HTTP front-end over a pool of engine shards,
// and the wire client that preserves the submit/stream/join contract
// across it. Reports assembled by the client are bit-identical to
// in-process Engine.Submit on the same workload and options.
type (
	// Service is the multi-tenant streaming alignment service: POST
	// /v1/jobs submits a workload and streams NDJSON results, jobs route
	// to shards by content affinity, admission is fair-share + load
	// shedding (429 with Retry-After), and delivered batches replay from
	// a bounded window for resumable streams.
	Service = service.Server
	// ServiceConfig shapes a Service (shards, engine options, admission
	// rates, replay window, linger).
	ServiceConfig = service.Config
	// ServiceStats is the GET /v1/stats payload: per-tenant counters,
	// per-shard engine stats and the aggregated autoscaling signals.
	ServiceStats = service.StatsReply
	// ServiceClient talks to a Service over HTTP.
	ServiceClient = serviceclient.Client
	// ServiceClientOption configures NewServiceClient (tenant identity,
	// stream linger, transport retry).
	ServiceClientOption = serviceclient.Option
	// RemoteJob is a submitted workload's wire-side handle, mirroring
	// Job: Results streams EngineUpdates, Wait joins for the IPUReport.
	RemoteJob = serviceclient.RemoteJob
)

// NewService starts the HTTP alignment service and its engine shards;
// serve its Handler with an http.Server and Close it when done.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceClient returns a client for the service at base
// (scheme://host:port).
func NewServiceClient(base string, opts ...ServiceClientOption) *ServiceClient {
	return serviceclient.New(base, opts...)
}

// Service client options.
var (
	// WithServiceTenant sets the client's tenant identity (fair-share
	// admission key).
	WithServiceTenant = serviceclient.WithTenant
	// WithStreamLinger asks the server to keep a disconnected job alive
	// that long so the client can resume its stream.
	WithStreamLinger = serviceclient.WithStreamLinger
	// WithServicePhases asks the server for each job's phases, where its
	// wall time went, read back by RemoteJob.Phases.
	WithServicePhases = serviceclient.WithPhases
	// WithTransportRetry sets transport attempts per request.
	WithTransportRetry = serviceclient.WithTransportRetry
	// WithTransportBackoff shapes the jittered retry backoff.
	WithTransportBackoff = serviceclient.WithTransportBackoff
	// WithHTTPClient substitutes the underlying *http.Client.
	WithHTTPClient = serviceclient.WithHTTPClient
)

// EncodeDataset serializes a dataset into the service's binary wire
// format (the Content-Type WireDatasetContentType payload).
func EncodeDataset(d *Dataset) ([]byte, error) { return wire.EncodeDataset(d) }

// DecodeDataset reverses EncodeDataset; the restored dataset preserves
// spans and bytes, and its digests are computed from those bytes in this
// process, so routing and cache identity are those of the same content
// submitted in process. The dataset adopts p's bytes as its sequence
// slabs, so p must not be modified afterwards.
func DecodeDataset(p []byte) (*Dataset, error) { return wire.DecodeDataset(p) }

// Wire content types.
const (
	// WireDatasetContentType is the binary workload payload.
	WireDatasetContentType = wire.ContentTypeDataset
	// WireFastaContentType is the plain-FASTA submission path.
	WireFastaContentType = wire.ContentTypeFasta
)

// Pipelines.
type (
	// ELBAConfig configures the assembler pipeline (§2.3).
	ELBAConfig = elba.Config
	// ELBAResult is an assembly outcome.
	ELBAResult = elba.Result
	// PASTISConfig configures the protein homology pipeline (§2.4).
	PASTISConfig = pastis.Config
	// PASTISResult is a homology search outcome.
	PASTISResult = pastis.Result
	// Backend executes a pipeline's alignment phase (IPU, CPU or GPU).
	Backend = backend.Backend
	// IPUBackend runs alignments on the simulated IPU system.
	IPUBackend = backend.IPU
	// CPUBackend runs the SeqAn/ksw2/genometools-like CPU baselines.
	CPUBackend = backend.CPU
	// GPUBackend runs the LOGAN-like GPU baseline.
	GPUBackend = backend.GPU
)

// AssembleELBA runs the ELBA pipeline over a read set.
func AssembleELBA(reads [][]byte, cfg ELBAConfig) (*ELBAResult, error) {
	return elba.Assemble(reads, cfg)
}

// SearchPASTIS runs the PASTIS pipeline over a protein set.
func SearchPASTIS(seqs [][]byte, cfg PASTISConfig) (*PASTISResult, error) {
	return pastis.Search(seqs, cfg)
}

// Baselines (§5.1).
type BaselineResult = baselines.Result

// SeqAn runs the SeqAn-like CPU baseline on a dataset.
func SeqAn(d *Dataset, x int) *BaselineResult {
	return baselines.SeqAn(d, x, platform.EPYC7763)
}

// Ksw2 runs the ksw2-like affine-gap CPU baseline.
func Ksw2(d *Dataset, x int) *BaselineResult {
	return baselines.Ksw2(d, x, platform.EPYC7763)
}

// Logan runs the LOGAN-like GPU baseline.
func Logan(d *Dataset, x, gpus int) *BaselineResult {
	return baselines.Logan(d, x, platform.A100, gpus)
}
