package workload

import "sync"

// Plan is the comparison table in columnar (struct-of-arrays) layout: one
// int32 column per Comparison field. A row is the e_c tuple of §4.3; the
// columnar form packs 20 bytes per planned extension — matching the
// device's job-tuple wire format — where a []Comparison costs 40 and
// scatters the fields the partitioner scans (H, V) among the ones it does
// not (seed offsets).
type Plan struct {
	// H and V are the sequence-index columns (rows index into an Arena).
	H, V []int32
	// SeedH, SeedV and SeedLen are the seed-anchor columns.
	SeedH, SeedV, SeedLen []int32

	matOnce sync.Once
	mat     []Comparison
}

// NewPlan returns an empty plan with row capacity hint n.
func NewPlan(n int) *Plan {
	return &Plan{
		H: make([]int32, 0, n), V: make([]int32, 0, n),
		SeedH: make([]int32, 0, n), SeedV: make([]int32, 0, n),
		SeedLen: make([]int32, 0, n),
	}
}

// PlanOf builds a columnar plan from a comparison slice.
func PlanOf(cmps []Comparison) *Plan {
	p := NewPlan(len(cmps))
	for _, c := range cmps {
		p.Add(c)
	}
	return p
}

// Len returns the number of planned comparisons.
func (p *Plan) Len() int { return len(p.H) }

// Add appends one comparison row. Adding after Comparisons has been
// materialised is a misuse (the cached view would go stale); plans are
// built once and then shared immutably, like the arena they index.
func (p *Plan) Add(c Comparison) {
	p.H = append(p.H, int32(c.H))
	p.V = append(p.V, int32(c.V))
	p.SeedH = append(p.SeedH, int32(c.SeedH))
	p.SeedV = append(p.SeedV, int32(c.SeedV))
	p.SeedLen = append(p.SeedLen, int32(c.SeedLen))
}

// At materialises row i as a Comparison.
func (p *Plan) At(i int) Comparison {
	return Comparison{
		H: int(p.H[i]), V: int(p.V[i]),
		SeedH: int(p.SeedH[i]), SeedV: int(p.SeedV[i]), SeedLen: int(p.SeedLen[i]),
	}
}

// ExtensionLens returns row i's four extension lengths, as
// Dataset.ExtensionLens does for a materialised row, read straight from
// the columns and refs, the arena's span table the plan indexes. Callers
// that fold every row (validation, the partitioner) use it to skip At.
func (p *Plan) ExtensionLens(refs []SeqRef, i int) (lh, lv, rh, rv int) {
	sh, sv, sl := int(p.SeedH[i]), int(p.SeedV[i]), int(p.SeedLen[i])
	return sh, sv, int(refs[p.H[i]].Len) - sh - sl, int(refs[p.V[i]].Len) - sv - sl
}

// Select returns a new plan holding rows[i] of p, in order — the
// sub-plan the driver partitions when dedup reduces execution to the
// unique-extension representatives.
func (p *Plan) Select(rows []int32) *Plan {
	q := NewPlan(len(rows))
	for _, r := range rows {
		q.Add(p.At(int(r)))
	}
	return q
}

// Comparisons returns the row-materialised view, built once and cached, so
// every Dataset view over the same plan shares one []Comparison instead of
// re-allocating per job. Callers must not mutate the returned slice.
func (p *Plan) Comparisons() []Comparison {
	p.matOnce.Do(func() {
		p.mat = make([]Comparison, p.Len())
		for i := range p.mat {
			p.mat[i] = p.At(i)
		}
	})
	return p.mat
}
