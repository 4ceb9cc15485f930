package statesync

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/store"
)

// SegmentLog is the standard indexed flush sink behind store.Retention: it
// implements both halves of the cold-storage seam — store.ColdStore (the
// eviction sweep appends segments with their manifests) and
// store.ColdReader (epoch-windowed queries read evicted telemetry back
// through point-in-time views).
//
// The log lives in a directory: each segment persists as seg-NNNNNN.seg
// next to manifest.jsonl, one JSON line per segment in log order — the tiny
// index that lets read-back skip irrelevant segments without decoding them,
// and that survives a daemon restart (reopening the same directory resumes
// the log). Appends extend the manifest in place (O(1) index I/O per
// eviction sweep); only compaction and tiering rewrite it, atomically (temp
// file + rename).
//
// Manifest line format: every line of a segment that is not tiered out
// carries an explicit "file" field naming its payload, so compaction can
// retire and merge files without renumbering survivors; a line without one
// fails the open. A line's manifest may predate the index (V 0, matching
// every query); the first rewrite upgrades it. File ids are monotonic and
// never reused.
//
// All methods are safe for concurrent use: eviction sweeps append and the
// compactor rewrites while queries read through views (see View).
type SegmentLog struct {
	// mu guards segs and next. The published segs slice is copy-on-rewrite:
	// appends extend it, rewrites (compaction, tiering) replace it
	// wholesale, and views capture the slice header under RLock — so a
	// view's segments stay valid and consistent regardless of what the log
	// does afterwards.
	mu   sync.RWMutex
	dir  string
	segs []logSegment
	next int // next segment file id (monotonic, never reused)

	// rewriteMu serializes whole-log rewrites (Compact, TierOut) against
	// each other; appends and reads stay concurrent.
	rewriteMu sync.Mutex

	// views counts open views; pending holds files retired by a rewrite
	// that may still be referenced by an open view. Files are deleted only
	// when the view count reaches zero (and at reopen, as orphans).
	views     atomic.Int64
	reclaimMu sync.Mutex
	pending   []string

	viewPool sync.Pool

	// Cold-tier activity counters exported by /metrics: segment appends,
	// payload decodes, compaction passes that merged something, segments
	// consumed by compaction, and segments tiered out. Atomics, so scrapes
	// never contend with sweeps or queries.
	segWrites   atomic.Uint64
	segDecodes  atomic.Uint64
	compactRuns atomic.Uint64
	compactedIn atomic.Uint64
	tieredOut   atomic.Uint64
}

// Counters is a snapshot of a SegmentLog's cumulative activity.
type Counters struct {
	// SegmentWrites counts WriteSegment appends (eviction-sweep flushes).
	SegmentWrites uint64
	// SegmentDecodes counts payload decodes (cold read-back and
	// compaction both pay one per segment read).
	SegmentDecodes uint64
	// CompactRuns counts compaction passes that merged at least one run.
	CompactRuns uint64
	// CompactedSegments counts segments consumed by those merges.
	CompactedSegments uint64
	// TieredSegments counts segments tiered out by age.
	TieredSegments uint64
}

// Counters returns the log's cumulative activity counters.
func (l *SegmentLog) Counters() Counters {
	return Counters{
		SegmentWrites:     l.segWrites.Load(),
		SegmentDecodes:    l.segDecodes.Load(),
		CompactRuns:       l.compactRuns.Load(),
		CompactedSegments: l.compactedIn.Load(),
		TieredSegments:    l.tieredOut.Load(),
	}
}

type logSegment struct {
	Manifest store.SegmentManifest
	file     string // payload file name within dir ("" = tiered)
}

// manifestLine is one persisted manifest.jsonl line: the manifest plus the
// payload file name (empty for a tiered-out segment).
type manifestLine struct {
	store.SegmentManifest
	File string `json:"file,omitempty"`
}

var (
	_ store.ColdStore  = (*SegmentLog)(nil)
	_ store.ColdReader = (*SegmentLog)(nil)
)

// NewSegmentLog opens the segment log in dir, which is created if needed; an
// existing manifest.jsonl resumes the persisted log. An empty dir is an
// error: the log has no other storage. Reopening reconciles the directory
// against the manifest: segment files never referenced by a manifest line
// (crash orphans — a payload written before its manifest line landed, or a
// compaction output whose commit never happened) and leftover temp files are
// removed, so the log always serves exactly the committed view.
func NewSegmentLog(dir string) (*SegmentLog, error) {
	if dir == "" {
		return nil, errors.New("statesync: segment log needs a directory")
	}
	l := &SegmentLog{dir: dir}
	l.viewPool.New = func() any { return new(logView) }
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statesync: segment log: %w", err)
	}
	raw, err := os.ReadFile(l.manifestPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("statesync: segment log: %w", err)
	}
	for i, line := range bytes.Split(raw, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ln manifestLine
		if err := json.Unmarshal(line, &ln); err != nil {
			return nil, fmt.Errorf("statesync: segment log manifest line %d: %w", i+1, err)
		}
		seg := logSegment{Manifest: ln.SegmentManifest, file: ln.File}
		if !seg.Manifest.Tiered {
			if seg.file == "" {
				return nil, fmt.Errorf("statesync: segment log manifest line %d names no segment file", i+1)
			}
			if _, err := os.Stat(filepath.Join(dir, seg.file)); err != nil {
				return nil, fmt.Errorf("statesync: segment log: manifest names missing segment %d: %w", len(l.segs), err)
			}
		} else {
			seg.file = ""
		}
		if id, ok := segFileID(seg.file); ok && id >= l.next {
			l.next = id + 1
		}
		l.segs = append(l.segs, seg)
	}
	if len(l.segs) > l.next {
		l.next = len(l.segs)
	}
	if err := l.removeOrphans(); err != nil {
		return nil, err
	}
	return l, nil
}

// removeOrphans deletes every seg-* payload not referenced by the loaded
// manifest, plus any *.tmp leftovers — the crash debris of an interrupted
// WriteSegment or compaction. Without this, a reopened log would leak the
// files forever and a future writer could collide with them.
func (l *SegmentLog) removeOrphans() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("statesync: segment log: %w", err)
	}
	referenced := make(map[string]bool, len(l.segs))
	for _, s := range l.segs {
		if s.file != "" {
			referenced[s.file] = true
		}
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == "manifest.jsonl" || referenced[name] {
			continue
		}
		if _, seg := segFileID(name); !seg && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return fmt.Errorf("statesync: segment log: remove orphan %s: %w", name, err)
		}
	}
	return nil
}

// Dir returns the backing directory.
func (l *SegmentLog) Dir() string { return l.dir }

func (l *SegmentLog) manifestPath() string { return filepath.Join(l.dir, "manifest.jsonl") }

func segFileName(id int) string { return fmt.Sprintf("seg-%06d.seg", id) }

// segFileID parses the id out of a seg-NNNNNN.seg name.
func segFileID(name string) (int, bool) {
	digits, prefixed := strings.CutPrefix(name, "seg-")
	digits, suffixed := strings.CutSuffix(digits, ".seg")
	id, err := strconv.Atoi(digits)
	return id, prefixed && suffixed && err == nil && id >= 0
}

// WriteSegment implements store.ColdStore: it appends one encoded segment
// and persists its manifest. The segment file lands before its manifest line
// is appended, so a crash between the two leaves a recoverable log (the
// orphan file is removed at reopen).
func (l *SegmentLog) WriteSegment(m store.SegmentManifest, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seg := logSegment{Manifest: m, file: segFileName(l.next)}
	if err := os.WriteFile(filepath.Join(l.dir, seg.file), payload, 0o644); err != nil {
		return fmt.Errorf("statesync: write segment %s: %w", seg.file, err)
	}
	if err := l.appendManifestLocked(manifestLine{SegmentManifest: m, File: seg.file}); err != nil {
		return err
	}
	l.next++
	l.segs = append(l.segs, seg)
	l.segWrites.Add(1)
	return nil
}

// appendManifestLocked appends one manifest line — O(1) per eviction sweep
// regardless of log length.
func (l *SegmentLog) appendManifestLocked(ln manifestLine) error {
	raw, err := json.Marshal(ln)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.manifestPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("statesync: append manifest: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("statesync: append manifest: %w", err)
	}
	return nil
}

// rewriteManifestLocked atomically replaces manifest.jsonl with one line
// per segment of segs — the commit point of every rewrite (compaction,
// tiering). Written to a temp file and renamed, so a crash at any point
// leaves either the old manifest or the new one, never a torn mix. Caller
// holds l.mu.
func (l *SegmentLog) rewriteManifestLocked(segs []logSegment) error {
	var buf bytes.Buffer
	for _, s := range segs {
		raw, err := json.Marshal(manifestLine{SegmentManifest: s.Manifest, File: s.file})
		if err != nil {
			return err
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	tmp := l.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("statesync: rewrite manifest: %w", err)
	}
	if err := os.Rename(tmp, l.manifestPath()); err != nil {
		return fmt.Errorf("statesync: rewrite manifest: %w", err)
	}
	return nil
}

// View implements store.ColdReader: a stable point-in-time view of the
// log. The view stays consistent — same segments, same indexes — while
// eviction sweeps append, the compactor rewrites, or tiering retires
// segments underneath it. Views are pooled, so the per-query-round acquire
// → walk manifests → release cycle is allocation-free at steady state.
// Every View must be Closed; segment files retired by a rewrite are
// deleted only once no view that could reference them remains open.
func (l *SegmentLog) View() store.ColdView {
	v := l.viewPool.Get().(*logView)
	l.mu.RLock()
	v.l, v.segs = l, l.segs
	l.views.Add(1)
	l.mu.RUnlock()
	return v
}

type logView struct {
	l    *SegmentLog
	segs []logSegment
}

var _ store.ColdView = (*logView)(nil)

// Len returns the number of segments in the view.
func (v *logView) Len() int { return len(v.segs) }

// Manifest returns segment i's manifest. The pointer is read-only and
// valid until Close.
func (v *logView) Manifest(i int) *store.SegmentManifest { return &v.segs[i].Manifest }

// ReadSegment reads segment i of the view and hands fn the cursor at each
// record keep admits, returning the segment's record count (see
// store.ColdView). A tiered-out segment returns an error wrapping
// store.ErrTiered.
func (v *logView) ReadSegment(i int, keep func(*flowrec.Cursor) bool, fn func(*flowrec.Cursor)) (int, error) {
	if i < 0 || i >= len(v.segs) {
		return 0, fmt.Errorf("statesync: segment %d out of range", i)
	}
	var n int
	err := v.l.readSegment(&v.segs[i], i, func(payload []byte) (err error) {
		n, err = flowrec.ScanSegment(payload, keep, fn)
		return err
	})
	return n, err
}

// Close releases the view back to the pool and, when it was the last open
// view, deletes any segment files retired by rewrites in the meantime.
func (v *logView) Close() {
	l := v.l
	v.l, v.segs = nil, nil
	l.viewPool.Put(v)
	if l.views.Add(-1) == 0 {
		l.reclaim()
	}
}

// reclaim deletes retired segment files once no view is open. Any view
// that could reference a pending file was open when the file was retired,
// so a zero view count — checked under reclaimMu, after the retiring
// rewrite published the new segment slice — proves the files unreachable:
// views opened later only see the new slice.
func (l *SegmentLog) reclaim() {
	l.reclaimMu.Lock()
	if l.views.Load() != 0 || len(l.pending) == 0 {
		l.reclaimMu.Unlock()
		return
	}
	pend := l.pending
	l.pending = nil
	l.reclaimMu.Unlock()
	for _, f := range pend {
		// Best-effort: a file that survives here is removed as an orphan at
		// the next reopen.
		_ = os.Remove(filepath.Join(l.dir, f))
	}
}

// retire queues files for deletion and reclaims immediately if possible.
func (l *SegmentLog) retire(files []string) {
	if len(files) == 0 {
		return
	}
	l.reclaimMu.Lock()
	l.pending = append(l.pending, files...)
	l.reclaimMu.Unlock()
	l.reclaim()
}

// readSegment hands segment i's payload to decode, which must not retain
// it (its buffer is pooled), and counts the decode.
func (l *SegmentLog) readSegment(seg *logSegment, i int, decode func(payload []byte) error) error {
	if seg.Manifest.Tiered {
		return fmt.Errorf("statesync: segment %d: %w", i, store.ErrTiered)
	}
	buf := readBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 { // keep no compaction-sized buffer alive
			buf.Reset()
			readBufs.Put(buf)
		}
	}()
	f, err := os.Open(filepath.Join(l.dir, seg.file))
	if err == nil {
		_, err = buf.ReadFrom(f)
		f.Close() // read-only: nothing to flush
	}
	if err != nil {
		return fmt.Errorf("statesync: read segment %d: %w", i, err)
	}
	if err := decode(buf.Bytes()); err != nil {
		return fmt.Errorf("statesync: segment %d: %w", i, err)
	}
	l.segDecodes.Add(1)
	return nil
}

// readBufs holds segment-file read buffers.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Len returns the number of stored segments.
func (l *SegmentLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segs)
}

// ReadSegment decodes segment i of the current log state and hands every
// record to fn, owned by the caller.
func (l *SegmentLog) ReadSegment(i int, fn func(*flowrec.Record)) error {
	v := l.View().(*logView)
	defer v.Close()
	if i < 0 || i >= len(v.segs) {
		return fmt.Errorf("statesync: segment %d out of range", i)
	}
	return l.decodeSegment(&v.segs[i], i, fn)
}

// decodeSegment decodes segment i and hands every record to fn, owned by the
// caller.
func (l *SegmentLog) decodeSegment(seg *logSegment, i int, fn func(*flowrec.Record)) error {
	return l.readSegment(seg, i, func(payload []byte) error {
		recs, err := flowrec.DecodeSegment(payload)
		for _, r := range recs {
			fn(r)
		}
		return err
	})
}
