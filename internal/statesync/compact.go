package statesync

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/store"
)

// CompactPolicy decides which segment runs are worth merging.
type CompactPolicy struct {
	// MinRun is the minimum length of a mergeable run (default 4): shorter
	// runs are left alone, so compaction work stays amortized.
	MinRun int
	// MaxSegmentBytes bounds which segments count as "small" (default
	// 1 MiB): a segment already larger than this is a previous compaction's
	// output (or a huge sweep) and terminates any run.
	MaxSegmentBytes int
}

func (p CompactPolicy) withDefaults() CompactPolicy {
	if p.MinRun <= 0 {
		p.MinRun = 4
	}
	if p.MaxSegmentBytes <= 0 {
		p.MaxSegmentBytes = 1 << 20
	}
	return p
}

// CompactStats accounts one Compact call.
type CompactStats struct {
	// Runs is the number of segment runs merged.
	Runs int
	// SegmentsIn/SegmentsOut count segments consumed and produced.
	SegmentsIn, SegmentsOut int
	// RecordsIn/RecordsOut count record versions read and surviving
	// (RecordsIn - RecordsOut were superseded duplicates).
	RecordsIn, RecordsOut int
	// BytesIn/BytesOut count encoded payload bytes consumed and produced.
	BytesIn, BytesOut int
}

// Compactor runs a SegmentLog's compaction under a fixed policy — the
// shape `spd host -compact-*` arms on the daemon's maintenance timer.
type Compactor struct {
	Log    *SegmentLog
	Policy CompactPolicy
	// OnError, when set, receives background sweep failures.
	OnError func(error)
}

// Run performs one compaction pass.
func (c *Compactor) Run(ctx context.Context) (CompactStats, error) {
	st, err := c.Log.Compact(ctx, c.Policy)
	if err != nil && c.OnError != nil {
		c.OnError(err)
	}
	return st, err
}

// compactCrash, when non-nil, is invoked at the compactor's two
// crash-windows — after temp payloads are written but before they are
// renamed ("pre-rename"), and after the renames but before the manifest
// commit ("pre-commit"). A non-nil error aborts the pass right there,
// simulating a kill for the crash-safety tests: either way the committed
// manifest still describes the pre-compaction log, and reopen reconciles
// the debris.
var compactCrash func(stage string) error

// compactRun is one contiguous run of small chain-overlapping segments,
// [lo,hi) in prefix positions, plus its merged replacement.
type compactRun struct {
	lo, hi int
	seg    logSegment
	tmp    string // temp payload path (directory mode)
}

// Compact merges runs of small segments whose epoch ranges chain-overlap
// into one sorted segment each, dropping superseded record versions via
// the same recency guard as store.Put (LastSeen, then Pkts — the later
// segment wins ties, matching Put's equal-recency-replaces rule). New
// payloads are written to temp files and renamed, and the rewritten
// manifest is committed atomically, so a crash anywhere leaves either the
// old log or the new one. Concurrent appends land behind the compacted
// prefix; concurrent readers keep their views. The merged manifests carry
// the current index version, upgrading pre-index segments in passing.
func (l *SegmentLog) Compact(ctx context.Context, p CompactPolicy) (CompactStats, error) {
	p = p.withDefaults()
	l.rewriteMu.Lock()
	defer l.rewriteMu.Unlock()

	l.mu.RLock()
	prefix := l.segs
	l.mu.RUnlock()

	runs := findRuns(prefix, p)
	var st CompactStats
	if len(runs) == 0 {
		return st, nil
	}

	// Heavy phase, outside l.mu: decode each run, merge, encode, write the
	// new payload to a temp file. The prefix is immutable (appends only
	// extend the slice; rewrites are excluded by rewriteMu), so no lock is
	// needed to read it.
	abort := func() {
		for i := range runs {
			if runs[i].tmp != "" {
				_ = os.Remove(runs[i].tmp)
			}
		}
	}
	for ri := range runs {
		r := &runs[ri]
		if err := ctx.Err(); err != nil {
			abort()
			return CompactStats{}, err
		}
		merged := make(map[netsim.FlowKey]*flowrec.Record)
		recsIn, bytesIn := 0, 0
		for si := r.lo; si < r.hi; si++ {
			seg := &prefix[si]
			bytesIn += seg.Manifest.Bytes
			err := l.decodeSegment(seg, si, func(rec *flowrec.Record) {
				recsIn++
				if prev, ok := merged[rec.Flow]; ok &&
					(prev.LastSeen > rec.LastSeen ||
						(prev.LastSeen == rec.LastSeen && prev.Pkts > rec.Pkts)) {
					return
				}
				merged[rec.Flow] = rec
			})
			if err != nil {
				abort()
				return CompactStats{}, fmt.Errorf("statesync: compact: %w", err)
			}
		}
		recs := make([]*flowrec.Record, 0, len(merged))
		for _, rec := range merged {
			recs = append(recs, rec)
		}
		sort.Slice(recs, func(i, j int) bool { return flowrec.Less(recs[i].Flow, recs[j].Flow) })

		var buf bytes.Buffer
		if err := store.EncodeSegment(&buf, recs); err != nil {
			abort()
			return CompactStats{}, err
		}
		m := store.NewSegmentManifest(recs)
		m.Bytes = buf.Len()
		r.seg = logSegment{Manifest: m}
		if l.dir == "" {
			r.seg.payload = buf.Bytes()
		} else {
			l.mu.Lock()
			id := l.next
			l.next++
			l.mu.Unlock()
			r.seg.file = segFileName(id)
			r.tmp = filepath.Join(l.dir, r.seg.file+".tmp")
			if err := os.WriteFile(r.tmp, buf.Bytes(), 0o644); err != nil {
				abort()
				return CompactStats{}, fmt.Errorf("statesync: compact: %w", err)
			}
		}
		st.Runs++
		st.SegmentsIn += r.hi - r.lo
		st.SegmentsOut++
		st.RecordsIn += recsIn
		st.RecordsOut += len(recs)
		st.BytesIn += bytesIn
		st.BytesOut += m.Bytes
	}

	if compactCrash != nil {
		if err := compactCrash("pre-rename"); err != nil {
			abort()
			return CompactStats{}, err
		}
	}
	// Rename the temp payloads into place. They are not referenced by any
	// manifest yet: a crash from here until the manifest commit leaves them
	// as orphans that reopen removes.
	for ri := range runs {
		r := &runs[ri]
		if r.tmp == "" {
			continue
		}
		if err := os.Rename(r.tmp, filepath.Join(l.dir, r.seg.file)); err != nil {
			abort()
			return CompactStats{}, fmt.Errorf("statesync: compact: %w", err)
		}
		r.tmp = ""
	}
	if compactCrash != nil {
		if err := compactCrash("pre-commit"); err != nil {
			return CompactStats{}, err
		}
	}

	// Commit: splice the merged segments over their runs, keep everything
	// appended concurrently, rewrite the manifest atomically, publish the
	// new slice, and retire the replaced payload files.
	l.mu.Lock()
	cur := l.segs
	newSegs := make([]logSegment, 0, len(cur))
	var retired []string
	ri := 0
	for i := 0; i < len(cur); i++ {
		if ri < len(runs) && i == runs[ri].lo {
			newSegs = append(newSegs, runs[ri].seg)
			for si := runs[ri].lo; si < runs[ri].hi; si++ {
				if cur[si].file != "" {
					retired = append(retired, cur[si].file)
				}
			}
			i = runs[ri].hi - 1
			ri++
			continue
		}
		newSegs = append(newSegs, cur[i])
	}
	if l.dir != "" {
		if err := l.rewriteManifestLocked(newSegs); err != nil {
			// The merged payload files become orphans; reopen reconciles.
			l.mu.Unlock()
			return CompactStats{}, err
		}
	}
	l.segs = newSegs
	l.mu.Unlock()
	l.retire(retired)
	l.compactRuns.Add(1)
	l.compactedIn.Add(uint64(st.SegmentsIn))
	return st, nil
}

// findRuns scans the published prefix for contiguous runs of small,
// non-tiered segments whose epoch ranges chain-overlap (each next segment
// overlaps the union so far), at least p.MinRun long.
func findRuns(prefix []logSegment, p CompactPolicy) []compactRun {
	var runs []compactRun
	i := 0
	for i < len(prefix) {
		if !compactable(&prefix[i], p) {
			i++
			continue
		}
		j := i + 1
		union := prefix[i].Manifest.Epochs
		for j < len(prefix) && compactable(&prefix[j], p) && prefix[j].Manifest.Epochs.Overlaps(union) {
			union = union.Union(prefix[j].Manifest.Epochs)
			j++
		}
		if j-i >= p.MinRun {
			runs = append(runs, compactRun{lo: i, hi: j})
		}
		i = j
	}
	return runs
}

func compactable(s *logSegment, p CompactPolicy) bool {
	return !s.Manifest.Tiered && s.Manifest.Bytes <= p.MaxSegmentBytes
}
