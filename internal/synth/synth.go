// Package synth generates the synthetic and realistic-shaped workloads the
// paper evaluates on (§5.2): uniform-error synthetic pairs (simulated85),
// long-read datasets extracted from an assembly overlap step (the E. coli
// and C. elegans rows of Table 2), and protein families for PASTIS.
//
// No proprietary traces or PacBio runs are available to a pure-Go
// reproduction, so this package is the substitution: a seeded genome/read
// simulator whose length, error and seed-position distributions are shaped
// to match Table 2. All generation is deterministic given the spec's seed.
package synth

import (
	"math"
	"math/rand"
	"sort"

	"github.com/sram-align/xdropipu/internal/workload"
)

var dnaSymbols = []byte("ACGT")

// proteinSymbols are the 20 standard amino acids (no ambiguity codes).
var proteinSymbols = []byte("ARNDCQEGHILKMFPSTWYV")

// RandDNA returns n uniform random nucleotides.
func RandDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = dnaSymbols[rng.Intn(4)]
	}
	return s
}

// RandProtein returns n uniform random amino acids.
func RandProtein(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = proteinSymbols[rng.Intn(len(proteinSymbols))]
	}
	return s
}

// MutationProfile describes a per-symbol error model. Long-read
// technologies are indel-dominated (§2.2), so the default read profile
// weights insertions and deletions above substitutions.
type MutationProfile struct {
	// Sub, Ins and Del are per-symbol probabilities.
	Sub, Ins, Del float64
	// Burst is the per-symbol probability of an indel burst — a run of
	// BurstLen±50% inserted (or deleted) symbols, the bursty error mode
	// of CLR-class long reads that drives wide X-Drop working bands.
	Burst float64
	// BurstLen is the mean burst length (0 disables bursts).
	BurstLen int
	// Protein selects the amino-acid alphabet for replacement symbols.
	Protein bool
}

// Rate returns the total per-symbol error probability.
func (m MutationProfile) Rate() float64 { return m.Sub + m.Ins + m.Del }

// UniformDNA splits rate evenly across substitutions, insertions and
// deletions, matching the paper's synthetic data ("uniform-randomly
// mutating individual bases").
func UniformDNA(rate float64) MutationProfile {
	return MutationProfile{Sub: rate / 3, Ins: rate / 3, Del: rate / 3}
}

// SubOnlyDNA mutates by substitution only (used by the Fig. 6 sweep,
// which varies "symbol mismatches").
func SubOnlyDNA(rate float64) MutationProfile {
	return MutationProfile{Sub: rate}
}

// HiFiDNA approximates PacBio HiFi error characteristics: low total error,
// indel-leaning.
func HiFiDNA() MutationProfile {
	return MutationProfile{Sub: 0.002, Ins: 0.004, Del: 0.004}
}

func (m MutationProfile) alphabet() []byte {
	if m.Protein {
		return proteinSymbols
	}
	return dnaSymbols
}

// Apply mutates s under the profile and returns a new slice.
func (m MutationProfile) Apply(rng *rand.Rand, s []byte) []byte {
	out := make([]byte, 0, len(s)+len(s)/8+4)
	alpha := m.alphabet()
	skip := 0
	for _, c := range s {
		if skip > 0 {
			// Inside a deletion burst.
			skip--
			continue
		}
		if m.Burst > 0 && m.BurstLen > 0 && rng.Float64() < m.Burst {
			n := m.BurstLen/2 + rng.Intn(m.BurstLen+1)
			if rng.Intn(2) == 0 {
				for i := 0; i < n; i++ {
					out = append(out, alpha[rng.Intn(len(alpha))])
				}
				out = append(out, c)
			} else {
				skip = n
			}
			continue
		}
		r := rng.Float64()
		switch {
		case r < m.Sub:
			// Substitute with a different symbol.
			nc := alpha[rng.Intn(len(alpha))]
			for nc == c {
				nc = alpha[rng.Intn(len(alpha))]
			}
			out = append(out, nc)
		case r < m.Sub+m.Ins:
			out = append(out, alpha[rng.Intn(len(alpha))], c)
		case r < m.Sub+m.Ins+m.Del:
			// Deletion: drop the symbol.
		default:
			out = append(out, c)
		}
	}
	return out
}

// Comparison aliases the workload interchange type; generators fill it.
type Comparison = workload.Comparison

// Dataset aliases the workload interchange type; generators produce it.
type Dataset = workload.Dataset

// PlantSeed copies the k-mer at h[seedH:] over v[seedV:] so the seed is an
// exact match, as the k-mer seeding stages guarantee.
func PlantSeed(h, v []byte, seedH, seedV, k int) {
	copy(v[seedV:seedV+k], h[seedH:seedH+k])
}

// UniformPairsSpec configures the simulated85-style dataset: equal-length
// sequence pairs with a fixed similarity and a centred seed (§5.2:
// "Synthetic datasets were generated with equal sequence length and fixed
// read similarity").
type UniformPairsSpec struct {
	// Count is the number of comparisons.
	Count int
	// Length is the per-sequence length (9 992 in Table 2).
	Length int
	// ErrorRate is the mutation rate outside the seed (0.15 for
	// simulated85).
	ErrorRate float64
	// SeedLen is the planted exact k-mer length (17 in §5.2).
	SeedLen int
	// Seed seeds the generator.
	Seed int64
}

// UniformPairs generates the spec'd dataset. Every comparison gets its own
// pair of fresh sequences (no reuse), which is what makes the synthetic
// data insensitive to the LR-splitting and partitioning optimisations
// (§4.1.2, Table 1).
func UniformPairs(spec UniformPairsSpec) *Dataset {
	rng := rand.New(rand.NewSource(spec.Seed))
	seqs := make([][]byte, 0, 2*spec.Count)
	cmps := make([]Comparison, 0, spec.Count)
	prof := UniformDNA(spec.ErrorRate)
	for c := 0; c < spec.Count; c++ {
		h := RandDNA(rng, spec.Length)
		v := prof.Apply(rng, h)
		if len(v) < spec.Length {
			v = append(v, RandDNA(rng, spec.Length-len(v))...)
		}
		v = v[:spec.Length]
		mid := spec.Length / 2
		seedH := mid - spec.SeedLen/2
		// Locate the corresponding seed on v near the same offset.
		seedV := seedH
		if seedV+spec.SeedLen > len(v) {
			seedV = len(v) - spec.SeedLen
		}
		PlantSeed(h, v, seedH, seedV, spec.SeedLen)
		seqs = append(seqs, h, v)
		cmps = append(cmps, Comparison{
			H: len(seqs) - 2, V: len(seqs) - 1,
			SeedH: seedH, SeedV: seedV, SeedLen: spec.SeedLen,
		})
	}
	return workload.MustPack("simulated", seqs, cmps, false)
}

// ReadsSpec configures a long-read overlap dataset shaped like the ELBA
// rows of Table 2: reads sampled from one genome, comparisons derived from
// genomic overlap, seeds placed inside the overlap region.
type ReadsSpec struct {
	// Name labels the dataset.
	Name string
	// GenomeLen is the reference length to sample from.
	GenomeLen int
	// Coverage is the mean sequencing depth; it controls how many reads
	// (and therefore overlaps) are generated.
	Coverage float64
	// MeanReadLen and MinReadLen shape the length distribution
	// (log-normal-like, long tail — ecoli100 averages ~3.6 kb, ecoli and
	// elegans ~7.3 kb). MaxReadLen clamps the tail (0 = 4×mean).
	MeanReadLen, MinReadLen, MaxReadLen int
	// Errors is the per-read error model.
	Errors MutationProfile
	// SeedLen is the k-mer length (17 for the standalone sets, 31 for
	// ELBA runs).
	SeedLen int
	// MinOverlap is the genomic overlap needed to emit a comparison.
	MinOverlap int
	// MaxComparisons caps the emitted comparisons (0 = unlimited). The
	// cap keeps the genome-ordered prefix, i.e. every overlap within a
	// contiguous genomic region, so the comparison graph keeps the
	// density the partitioner (§4.3) exploits.
	MaxComparisons int
	// Seed seeds the generator.
	Seed int64
}

type readMeta struct {
	start, gLen int // genomic interval [start, start+gLen)
}

// Reads generates the spec'd dataset. Reads overlap on the genome, so
// sequences participate in multiple comparisons — the graph structure the
// partitioner (§4.3) exploits.
func Reads(spec ReadsSpec) *Dataset {
	rng := rand.New(rand.NewSource(spec.Seed))
	genome := RandDNA(rng, spec.GenomeLen)
	numReads := int(float64(spec.GenomeLen) * spec.Coverage / float64(spec.MeanReadLen))
	if numReads < 2 {
		numReads = 2
	}

	var seqs [][]byte
	metas := make([]readMeta, 0, numReads)
	for r := 0; r < numReads; r++ {
		// Log-normal-ish length: exp(N(log mean, 0.45)) clamped.
		ln := math.Exp(math.Log(float64(spec.MeanReadLen)) + rng.NormFloat64()*0.45)
		gLen := int(ln)
		if gLen < spec.MinReadLen {
			gLen = spec.MinReadLen
		}
		maxLen := spec.MaxReadLen
		if maxLen <= 0 {
			maxLen = 4 * spec.MeanReadLen
		}
		gLen = min(gLen, maxLen, spec.GenomeLen)
		start := rng.Intn(spec.GenomeLen - gLen + 1)
		read := spec.Errors.Apply(rng, genome[start:start+gLen])
		if len(read) < spec.SeedLen+2 {
			continue
		}
		metas = append(metas, readMeta{start: start, gLen: gLen})
		seqs = append(seqs, read)
	}

	// Emit comparisons for genomically overlapping read pairs. A sweep
	// over start-sorted reads keeps this O(overlaps).
	var cmps []Comparison
	order := make([]int, len(metas))
	for i := range order {
		order[i] = i
	}
	sortByStart(order, metas)
	for oi, i := range order {
		mi := metas[i]
		for _, j := range order[oi+1:] {
			mj := metas[j]
			if mj.start >= mi.start+mi.gLen-spec.MinOverlap {
				break
			}
			ovBeg := max(mi.start, mj.start)
			ovEnd := min(mi.start+mi.gLen, mj.start+mj.gLen)
			if ovEnd-ovBeg < spec.MinOverlap || ovEnd-ovBeg < spec.SeedLen {
				continue
			}
			// Place the seed at a random genomic point inside the
			// overlap; the same point maps into each read's local
			// coordinates (indels shift it slightly; clamping keeps
			// it legal and the extension tolerates the offset).
			g := ovBeg + rng.Intn(ovEnd-ovBeg-spec.SeedLen+1)
			sh := clampInt(g-mi.start, 0, len(seqs[i])-spec.SeedLen)
			sv := clampInt(g-mj.start, 0, len(seqs[j])-spec.SeedLen)
			PlantSeed(seqs[i], seqs[j], sh, sv, spec.SeedLen)
			cmps = append(cmps, Comparison{
				H: i, V: j, SeedH: sh, SeedV: sv, SeedLen: spec.SeedLen,
			})
		}
	}

	if spec.MaxComparisons > 0 && len(cmps) > spec.MaxComparisons {
		cmps = cmps[:spec.MaxComparisons]
	}
	return workload.MustPack(spec.Name, seqs, cmps, false)
}

func sortByStart(order []int, metas []readMeta) {
	sort.Slice(order, func(a, b int) bool { return metas[order[a]].start < metas[order[b]].start })
}

// ProteinFamiliesSpec configures the PASTIS workload: families of
// homologous proteins derived from common ancestors.
type ProteinFamiliesSpec struct {
	// Families is the number of ancestral proteins.
	Families int
	// MembersPerFamily is the family size (homolog count).
	MembersPerFamily int
	// MeanLen shapes member length.
	MeanLen int
	// MutRate is the per-residue divergence between family members.
	MutRate float64
	// Seed seeds the generator.
	Seed int64
}

// ProteinFamilies generates the families and returns the dataset plus the
// ground-truth family label per sequence (for recall checks).
func ProteinFamilies(spec ProteinFamiliesSpec) (*Dataset, []int) {
	rng := rand.New(rand.NewSource(spec.Seed))
	var seqs [][]byte
	var labels []int
	prof := MutationProfile{Sub: spec.MutRate * 0.8, Ins: spec.MutRate * 0.1, Del: spec.MutRate * 0.1, Protein: true}
	for f := 0; f < spec.Families; f++ {
		ln := spec.MeanLen/2 + rng.Intn(spec.MeanLen)
		anc := RandProtein(rng, ln)
		for m := 0; m < spec.MembersPerFamily; m++ {
			member := prof.Apply(rng, anc)
			if len(member) < 8 {
				member = append(member, RandProtein(rng, 8-len(member))...)
			}
			seqs = append(seqs, member)
			labels = append(labels, f)
		}
	}
	return workload.MustPack("protein-families", seqs, nil, true), labels
}

func clampInt(v, lo, hi int) int {
	return min(max(v, lo), hi)
}
