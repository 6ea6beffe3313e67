package core

// The doors only the repo benchmark's layer trace (benchmark/trace.go)
// reaches. Production records through RecordLeft/Right and scores through
// ExtendBatch; these stay, bodies unchanged, until that trace moves to
// those entry points.

// Tier is the type of Params.Tier, which selects nothing: every extension
// runs on int32 scores. benchmark/trace.go sets it.
type Tier uint8

// TierNarrow selects nothing. benchmark/trace.go's restricted2_narrow row
// sets it, and so times the int32 sweep every other row runs.
const TierNarrow Tier = 1

// record is recordRuns for the entry points that return a Cigar: the runs
// go to the tracer's scratch and come back encoded as the Trace's Cigar;
// rev encodes them back to front, which for forward views is view-forward
// order.
func (w *Workspace) record(h, v View, p Params, rev bool) (Result, Trace, error) {
	tb := &w.tb
	r, tr, runs, err := w.recordRuns(h, v, p, tb.runs[:0])
	if err == nil {
		tb.cig.AppendRuns(runs, rev)
		tr.Cigar = tb.cig.Cigar()
	}
	tb.runs = runs
	tb.trim()
	return r, tr, err
}

// FusedExtendRight runs the right seed extension (ExtendRight geometry)
// with fused direction recording: the Result bit-matches ExtendRight and
// the Trace bit-matches TracebackRight (Cigar in sequence-forward
// order). benchmark/trace.go's extender.side calls it.
func (w *Workspace) FusedExtendRight(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.record(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
}

// FusedExtendLeft is FusedExtendRight for the left seed extension
// (ExtendLeft geometry, reversed views; Cigar in sequence-forward
// order, matching TracebackLeft). benchmark/trace.go's extender.side
// calls it.
func (w *Workspace) FusedExtendLeft(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.record(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
}

// TracebackRight runs the second pass of the right seed extension
// (ExtendRight) — the recording sweep, keeping only its Trace — and
// returns its Cigar in sequence-forward order, which for forward views is
// view-forward order. Score, EndH and EndV bit-match
// Align(NewView(h[hOff:]), NewView(v[vOff:]), p). benchmark/trace.go's
// extender.side calls it.
func (w *Workspace) TracebackRight(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	_, tr, err := w.record(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
	return tr, err
}

// TracebackLeft runs the second pass of the left seed extension
// (ExtendLeft, reversed views) and returns its Cigar in sequence-forward
// order — for a reversed view that is the walk order itself, so the left
// Cigar concatenates directly in front of the seed. benchmark/trace.go's
// extender.side calls it.
func (w *Workspace) TracebackLeft(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	_, tr, err := w.record(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
	return tr, err
}
