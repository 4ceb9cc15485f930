package statesync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// coldRecord builds one standalone record: flow keyed by port, observed at
// switch 1 across the given epoch range.
func coldRecord(port uint16, last simtime.Time, lo, hi simtime.Epoch) *flowrec.Record {
	flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 2), Dst: netsim.IP(10, 1, byte(port>>8), byte(port)),
		SrcPort: port, DstPort: 80, Proto: 6}
	r := flowrec.New(flow)
	r.Path = []netsim.NodeID{1}
	r.Epochs = []simtime.EpochRange{{Lo: lo, Hi: hi}}
	r.LastSeen = last
	r.Pkts = 1
	return r
}

// writeSeg encodes recs as one segment and appends it to the log.
func writeSeg(t *testing.T, l *SegmentLog, recs ...*flowrec.Record) {
	t.Helper()
	var buf strings.Builder
	if err := store.EncodeSegment(&buf, recs); err != nil {
		t.Fatal(err)
	}
	m := store.NewSegmentManifest(recs)
	m.Bytes = buf.Len()
	if err := l.WriteSegment(m, []byte(buf.String())); err != nil {
		t.Fatal(err)
	}
}

// readAll decodes segment i into a flow-keyed map.
func readAll(t *testing.T, l *SegmentLog, i int) map[netsim.FlowKey]*flowrec.Record {
	t.Helper()
	out := make(map[netsim.FlowKey]*flowrec.Record)
	if err := l.ReadSegment(i, func(r *flowrec.Record) { out[r.Flow] = r }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactMergesRunsWithRecencyGuard pins the merge semantics: a run of
// small overlapping segments collapses into one sorted segment, and
// duplicate flow versions resolve by flowrec.Supersedes, as store.Put does
// — newer LastSeen wins; on ties, more Pkts wins; on full ties, the later
// segment's version replaces. Beside the four contested flows, 24 filler
// flows are spread over the run out of key order, so a merge that leaks
// its map order shows as unsorted records and as two compactions of the
// same input disagreeing byte for byte.
func TestCompactMergesRunsWithRecencyGuard(t *testing.T) {
	const fillers = 24
	stale := coldRecord(100, 50, 0, 2) // superseded: seg 2 carries LastSeen 90
	fresh := coldRecord(101, 10, 1, 3) // survives: seg 3 re-adds it with older LastSeen
	winner := coldRecord(100, 90, 4, 6)
	loser := coldRecord(101, 5, 5, 7)
	tiePrev := coldRecord(102, 30, 2, 4)
	tiePrev.Pkts = 9 // tie on LastSeen below: more Pkts, must survive
	tieNext := coldRecord(102, 30, 5, 7)
	evenPrev := coldRecord(103, 40, 2, 3) // a full tie: the later segment's version replaces
	evenNext := coldRecord(103, 40, 5, 6)
	evenPrev.Bytes, evenNext.Bytes = 1, 2
	segs := [][]*flowrec.Record{
		{stale, fresh},
		{tiePrev, evenPrev},
		{winner},
		{loser, tieNext, evenNext},
	}
	for i := 0; i < fillers; i++ {
		port := uint16(200 + (i*7)%fillers)
		segs[i%len(segs)] = append(segs[i%len(segs)], coldRecord(port, 20, 2, 5))
	}
	// compacted writes the run into a fresh log and compacts it.
	compacted := func(t *testing.T) (*SegmentLog, CompactStats) {
		l, err := NewSegmentLog(filepath.Join(t.TempDir(), "cold"))
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range segs {
			writeSeg(t, l, recs...)
		}
		st, err := l.Compact(context.Background(), CompactPolicy{MinRun: 4})
		if err != nil {
			t.Fatal(err)
		}
		return l, st
	}
	// The cold tier keeps its segments in an on-disk directory.
	t.Run("dir", func(t *testing.T) {
		l, st := compacted(t)
		if st.Runs != 1 || st.SegmentsIn != 4 || st.SegmentsOut != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if st.RecordsIn != 8+fillers || st.RecordsOut != 4+fillers {
			t.Fatalf("stats = %+v: want %d records in, %d surviving", st, 8+fillers, 4+fillers)
		}
		if l.Len() != 1 {
			t.Fatalf("Len = %d after compaction", l.Len())
		}
		got := readAll(t, l, 0)
		if len(got) != 4+fillers {
			t.Fatalf("merged segment holds %d flows, want %d", len(got), 4+fillers)
		}
		if r := got[winner.Flow]; r == nil || r.LastSeen != 90 {
			t.Fatalf("port-100 flow = %+v, want the LastSeen-90 version", r)
		}
		if r := got[fresh.Flow]; r == nil || r.LastSeen != 10 {
			t.Fatalf("port-101 flow = %+v, want the LastSeen-10 version", r)
		}
		if r := got[tiePrev.Flow]; r == nil || r.Pkts != 9 {
			t.Fatalf("port-102 flow = %+v, want the Pkts-9 version (LastSeen tie)", r)
		}
		if r := got[evenNext.Flow]; r == nil || r.Bytes != 2 {
			t.Fatalf("port-103 flow = %+v, want the later segment's version (full tie)", r)
		}

		// The merged manifest is fully indexed and covers the run's union.
		m := manifests(l)[0]
		if m.V == 0 || m.Bloom == nil {
			t.Fatalf("merged manifest unindexed: %+v", m)
		}
		// The index covers the SURVIVING records only (superseded
		// versions' epochs drop out): fresh [1,3] ∪ tiePrev [2,4] ∪
		// winner [4,6] ∪ evenNext [5,6] ∪ the fillers' [2,5].
		if m.Epochs != (simtime.EpochRange{Lo: 1, Hi: 6}) {
			t.Fatalf("merged epochs = %+v", m.Epochs)
		}

		// Sorted by flow key: decode order must be ascending.
		var order []netsim.FlowKey
		if err := l.ReadSegment(0, func(r *flowrec.Record) { order = append(order, r.Flow) }); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			if !flowrec.Less(order[i-1], order[i]) {
				t.Fatalf("merged records not sorted: %v", order)
			}
		}

		// The merged payload is a function of the input alone.
		again, _ := compacted(t)
		if a, b := segmentPayload(t, l, 0), segmentPayload(t, again, 0); !bytes.Equal(a, b) {
			t.Fatalf("two compactions of the same input wrote different payloads (%d and %d bytes)", len(a), len(b))
		}
	})
}

// segmentPayload reads segment i's payload file as it lies on disk.
func segmentPayload(t *testing.T, l *SegmentLog, i int) []byte {
	t.Helper()
	l.mu.RLock()
	file := l.segs[i].file
	l.mu.RUnlock()
	b, err := os.ReadFile(filepath.Join(l.Dir(), file))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCompactLeavesShortRunsAndBigSegments pins the policy edge: runs
// shorter than MinRun and segments above MaxSegmentBytes stay untouched.
func TestCompactLeavesShortRunsAndBigSegments(t *testing.T) {
	l, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSeg(t, l, coldRecord(1, 1, 0, 1))
	writeSeg(t, l, coldRecord(2, 2, 1, 2))
	writeSeg(t, l, coldRecord(3, 3, 2, 3))
	st, err := l.Compact(context.Background(), CompactPolicy{MinRun: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 || l.Len() != 3 {
		t.Fatalf("short run compacted: %+v, Len %d", st, l.Len())
	}
	// With a tiny byte bound nothing qualifies as "small".
	st, err = l.Compact(context.Background(), CompactPolicy{MinRun: 2, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 {
		t.Fatalf("oversized segments joined a run: %+v", st)
	}
}

// dirNames lists the data files in dir (everything but manifest.jsonl).
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != "manifest.jsonl" {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCompactCrashSafety kills the compactor in both crash windows — before
// the temp renames and after them but before the manifest commit — and
// asserts a reopened log serves exactly the pre-compaction view with no
// debris left in the directory.
func TestCompactCrashSafety(t *testing.T) {
	for _, stage := range []string{"pre-rename", "pre-commit"} {
		t.Run(stage, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cold")
			l, err := NewSegmentLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				writeSeg(t, l, coldRecord(uint16(10+i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+1)))
			}
			before, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
			if err != nil {
				t.Fatal(err)
			}

			crashAt := stage
			compactCrash = func(s string) error {
				if s == crashAt {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			defer func() { compactCrash = nil }()
			if _, err := l.Compact(context.Background(), CompactPolicy{MinRun: 4}); err == nil {
				t.Fatal("crashed compaction reported success")
			}

			// The committed manifest is untouched.
			after, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if string(before) != string(after) {
				t.Fatalf("crash mutated the committed manifest:\n%s\nvs\n%s", before, after)
			}

			// Reopen: the pre-compaction view, with all crash debris removed.
			re, err := NewSegmentLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			if re.Len() != 4 {
				t.Fatalf("reopened Len = %d, want 4", re.Len())
			}
			for i := 0; i < 4; i++ {
				got := readAll(t, re, i)
				if len(got) != 1 {
					t.Fatalf("segment %d decoded %d records", i, len(got))
				}
			}
			names := dirNames(t, dir)
			if len(names) != 4 {
				t.Fatalf("directory holds %v after reopen, want the 4 committed segments", names)
			}
			for _, n := range names {
				if strings.HasSuffix(n, ".tmp") {
					t.Fatalf("temp debris survived reopen: %v", names)
				}
			}
		})
	}
}

// TestReopenReconcilesOrphansAndAvoidsCollision pins the reopen contract:
// segment files never referenced by the manifest (a payload written before
// its manifest line landed) and temp leftovers are removed, and subsequent
// WriteSegment calls never collide with — or resurrect — stale payloads.
func TestReopenReconcilesOrphansAndAvoidsCollision(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cold")
	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSeg(t, l, coldRecord(1, 1, 0, 1))
	writeSeg(t, l, coldRecord(2, 2, 1, 2))

	// Crash debris: the next segment's payload landed but its manifest line
	// never did, plus an interrupted rewrite's temp file.
	orphan := filepath.Join(dir, segFileName(2))
	if err := os.WriteFile(orphan, []byte("stale payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segFileName(9)+".tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("orphans survived reopen: %v", names)
	}

	// The reconciled log writes the next segment under the reclaimed name —
	// and serves the NEW payload, not the stale orphan bytes.
	writeSeg(t, re, coldRecord(3, 3, 2, 3))
	got := readAll(t, re, 2)
	if len(got) != 1 {
		t.Fatalf("segment written after reconcile decoded %d records", len(got))
	}
	if _, ok := got[coldRecord(3, 3, 2, 3).Flow]; !ok {
		t.Fatal("post-reconcile segment serves the wrong payload")
	}
}

// TestManifestCompatAndUpgrade pins what still loads from a manifest that
// predates the index: V 0 lines that name their file load, their
// unindexed manifests never skip anything, and the first compaction
// upgrades every surviving line. A line that names no file fails the open.
func TestManifestCompatAndUpgrade(t *testing.T) {
	dir := t.TempDir()
	// Two segments with manifest lines carrying neither "v" nor the index.
	var lines []string
	for i := 0; i < 2; i++ {
		rec := coldRecord(uint16(20+i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+2))
		var buf strings.Builder
		if err := store.EncodeSegment(&buf, []*flowrec.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(i)), []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf(`{"epochs":{"Lo":%d,"Hi":%d},"flows":1,"bytes":%d,"file":%q}`, i, i+2, buf.Len(), segFileName(i)))
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A gob payload an old build left is not the log's to delete.
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.gob"), []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000000.gob")); err != nil {
		t.Fatalf("reopen removed a .gob file as an orphan: %v", err)
	}
	if l.Len() != 2 {
		t.Fatalf("legacy log loaded %d segments, want 2", l.Len())
	}
	// Unindexed manifests are conservative: no switch or flow is excluded,
	// so a legacy segment can never be wrongly skipped.
	for _, m := range manifests(l) {
		if m.V != 0 {
			t.Fatalf("legacy manifest parsed with V = %d", m.V)
		}
		if !m.MayContainSwitch(999) || !m.MayContainFlow(netsim.FlowKey{}) {
			t.Fatal("legacy manifest excluded a query")
		}
	}
	if got := readAll(t, l, 1); len(got) != 1 {
		t.Fatalf("legacy segment 1 decoded %d records", len(got))
	}

	// First compaction merges the legacy run and upgrades the manifest.
	if _, err := l.Compact(context.Background(), CompactPolicy{MinRun: 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ln struct {
			V    int    `json:"v"`
			File string `json:"file"`
		}
		if err := json.Unmarshal([]byte(line), &ln); err != nil {
			t.Fatal(err)
		}
		if ln.V == 0 || ln.File == "" {
			t.Fatalf("compaction left an unupgraded manifest line: %s", line)
		}
	}
	re, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("upgraded log reopened with %d segments, want 1", re.Len())
	}
	if got := readAll(t, re, 0); len(got) != 2 {
		t.Fatalf("merged legacy segment decoded %d records, want 2", len(got))
	}

	// A line of a segment that is not tiered out must name its file.
	bare := t.TempDir()
	if err := os.WriteFile(filepath.Join(bare, "manifest.jsonl"), []byte(`{"epochs":{"Lo":0,"Hi":2},"flows":1,"bytes":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSegmentLog(bare); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("a manifest line without a file opened: %v", err)
	}
	// A payload that is not a codec segment (a gob one, say) fails its read.
	foreign, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.WriteSegment(store.SegmentManifest{}, []byte{0x0c, 0xff, 0x81}); err != nil {
		t.Fatal(err)
	}
	if err := foreign.ReadSegment(0, func(*flowrec.Record) {}); err == nil || !strings.Contains(err.Error(), "segment 0") {
		t.Fatalf("a foreign payload read back: %v", err)
	}
}

// TestTierOutArchivesAndReportsHonestly pins the tiering contract: aged
// segments' payloads move to the archive, their manifests survive marked
// Tiered, reads return ErrTiered, and a reopened log still knows the gap.
func TestTierOutArchivesAndReportsHonestly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cold")
	archive := filepath.Join(t.TempDir(), "archive")
	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSeg(t, l, coldRecord(1, 1, 0, 1))
	writeSeg(t, l, coldRecord(2, 2, 2, 3))
	writeSeg(t, l, coldRecord(3, 3, 100, 101))

	const alpha = simtime.Millisecond
	p := TierPolicy{MaxAgeEpochs: 10, Alpha: alpha, ArchiveDir: archive}
	// now = epoch 50: cutoff 40, so the first two segments age out.
	st, err := l.TierOut(context.Background(), 50*alpha, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiered != 2 || st.Archived != 2 || st.TieredBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if l.Len() != 3 {
		t.Fatalf("tiering dropped manifests: Len = %d", l.Len())
	}
	for i := 0; i < 2; i++ {
		err := l.ReadSegment(i, func(*flowrec.Record) {})
		if !errors.Is(err, store.ErrTiered) {
			t.Fatalf("tiered segment %d read err = %v, want ErrTiered", i, err)
		}
		if _, err := os.Stat(filepath.Join(archive, segFileName(i))); err != nil {
			t.Fatalf("archived payload %d missing: %v", i, err)
		}
	}
	if got := readAll(t, l, 2); len(got) != 1 {
		t.Fatalf("young segment unreadable after tiering: %d records", len(got))
	}
	// Retired payloads left the cold dir (no view was open).
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("tiered payloads survived in cold dir: %v", names)
	}
	// A second sweep is a no-op: tiered segments never re-tier.
	st, err = l.TierOut(context.Background(), 50*alpha, p)
	if err != nil || st.Tiered != 0 {
		t.Fatalf("re-sweep = %+v, %v", st, err)
	}

	re, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := manifests(re)
	if len(ms) != 3 || !ms[0].Tiered || !ms[1].Tiered || ms[2].Tiered {
		t.Fatalf("reopened tier marks = %+v", ms)
	}
	if err := re.ReadSegment(0, func(*flowrec.Record) {}); !errors.Is(err, store.ErrTiered) {
		t.Fatalf("reopened tiered read err = %v", err)
	}
}

// TestViewSurvivesRewrites pins the consistency contract: a view opened
// before a compaction keeps serving the old segments — including their
// payload files, which are deleted only after the view closes.
func TestViewSurvivesRewrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cold")
	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		writeSeg(t, l, coldRecord(uint16(30+i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+1)))
	}
	v := l.View()
	if _, err := l.Compact(context.Background(), CompactPolicy{MinRun: 4}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("post-compaction Len = %d", l.Len())
	}
	// The open view still sees — and can decode — all four old segments.
	if v.Len() != 4 {
		t.Fatalf("view Len = %d after rewrite, want 4", v.Len())
	}
	for i := 0; i < 4; i++ {
		n := 0
		if recs, err := v.ReadSegment(i, nil, func(*flowrec.Cursor) { n++ }); err != nil || n != 1 || recs != 1 {
			t.Fatalf("view segment %d: %d of %d records, err %v", i, n, recs, err)
		}
	}
	v.Close()
	// With the last view closed the retired payloads are reclaimed: only
	// the merged segment's file remains.
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("retired payloads survived view close: %v", names)
	}
}

// TestViewWalkAllocFree is the perf gate for the per-round manifest walk:
// acquiring a view, touching every manifest, and releasing it must not
// allocate at steady state (a copy of every manifest would allocate per round).
func TestViewWalkAllocFree(t *testing.T) {
	l, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		writeSeg(t, l, coldRecord(uint16(i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+1)))
	}
	// Warm the view pool.
	v := l.View()
	v.Close()
	avg := testing.AllocsPerRun(200, func() {
		v := l.View()
		n := 0
		for i := 0; i < v.Len(); i++ {
			if v.Manifest(i).Flows > 0 {
				n++
			}
		}
		v.Close()
		if n != 64 {
			t.Fatalf("walked %d manifests", n)
		}
	})
	if avg >= 1 {
		t.Fatalf("view walk allocates %.1f objects per round, want 0", avg)
	}
}

// TestColdTierConcurrency is the -race gate for the whole cold tier: an
// eviction appender, a compactor, and an age-tier sweeper all rewrite the
// log while four query readers walk views and decode segments.
func TestColdTierConcurrency(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cold")
	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		writeSeg(t, l, coldRecord(uint16(i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+1)))
	}

	const iters = 60
	var wg sync.WaitGroup
	fail := make(chan error, 8)

	wg.Add(1)
	go func() { // appender: eviction sweeps keep landing new segments
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec := coldRecord(uint16(100+i), simtime.Time(i), simtime.Epoch(i), simtime.Epoch(i+2))
			var buf strings.Builder
			if err := store.EncodeSegment(&buf, []*flowrec.Record{rec}); err != nil {
				fail <- err
				return
			}
			m := store.NewSegmentManifest([]*flowrec.Record{rec})
			m.Bytes = buf.Len()
			if err := l.WriteSegment(m, []byte(buf.String())); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if _, err := l.Compact(context.Background(), CompactPolicy{MinRun: 3}); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // age tiering
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			_, err := l.TierOut(context.Background(), simtime.Time(20+i)*simtime.Millisecond,
				TierPolicy{MaxAgeEpochs: 15, Alpha: simtime.Millisecond})
			if err != nil {
				fail <- err
				return
			}
		}
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() { // query readers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := l.View()
				n := v.Len()
				for s := 0; s < n; s++ {
					m := v.Manifest(s)
					if m.Flows <= 0 && !m.Tiered {
						fail <- fmt.Errorf("view served an empty live manifest at %d", s)
						v.Close()
						return
					}
					// Alternate whole and filtered reads through the pooled
					// read buffers.
					var keep func(*flowrec.Cursor) bool
					if i%2 == 1 {
						keep = func(c *flowrec.Cursor) bool { return c.Flow().SrcPort%2 == 0 }
					}
					recs, err := v.ReadSegment(s, keep, func(*flowrec.Cursor) {})
					if err != nil && !errors.Is(err, store.ErrTiered) {
						fail <- fmt.Errorf("view read %d: %w", s, err)
						v.Close()
						return
					}
					if err == nil && recs != m.Flows {
						fail <- fmt.Errorf("view read %d: %d records, manifest says %d", s, recs, m.Flows)
						v.Close()
						return
					}
				}
				v.Close()
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// The settled log must still reopen cleanly and serve every live segment.
	re, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < re.Len(); i++ {
		err := re.ReadSegment(i, func(*flowrec.Record) {})
		if err != nil && !errors.Is(err, store.ErrTiered) {
			t.Fatalf("reopened segment %d: %v", i, err)
		}
	}
}

// TestColdIndexEffectiveness is the index acceptance gate: over 80 flushed
// segments all overlapping the query window, a flow-restricted query must
// decode only the few segments that can actually hold its flows (bloom +
// bounds), a foreign-switch query must decode none (switch set), and the
// indexed answers must be byte-identical to an exhaustive unindexed scan of
// the same payloads.
func TestColdIndexEffectiveness(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[richestAgentIP(tb)]
	// Empty the hot store so every answer comes from the cold tier.
	ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha})
	if _, err := ag.Store.Maintain(1 << 40); err != nil {
		t.Fatal(err)
	}
	if ag.Store.Len() != 0 {
		t.Fatalf("store still holds %d records", ag.Store.Len())
	}

	// Two logs over IDENTICAL payloads: one with full version-1 manifests,
	// one with stripped pre-index manifests (V=0 — the exhaustive baseline).
	const segs = 80
	const perSeg = 4
	const k = 3 // segments the query's flows actually live in
	indexed, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	unindexed, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var queryFlows []netsim.FlowKey
	for i := 0; i < segs; i++ {
		var recs []*flowrec.Record
		for j := 0; j < perSeg; j++ {
			recs = append(recs, coldRecord(uint16(1+i*perSeg+j), simtime.Time(i), 0, 10))
		}
		if i%27 == 0 && len(queryFlows) < k {
			queryFlows = append(queryFlows, recs[i%perSeg].Flow)
		}
		var buf strings.Builder
		if err := store.EncodeSegment(&buf, recs); err != nil {
			t.Fatal(err)
		}
		m := store.NewSegmentManifest(recs)
		m.Bytes = buf.Len()
		if err := indexed.WriteSegment(m, []byte(buf.String())); err != nil {
			t.Fatal(err)
		}
		bare := store.SegmentManifest{Epochs: m.Epochs, Flows: m.Flows, Bytes: m.Bytes}
		if err := unindexed.WriteSegment(bare, []byte(buf.String())); err != nil {
			t.Fatal(err)
		}
	}
	q := hostagent.HeadersQuery{Switch: 1, Epochs: simtime.EpochRange{Lo: 0, Hi: 10}, Flows: queryFlows}

	ag.SetColdReader(indexed)
	fast := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{q})[0]
	if n := len(answerRecords(t, fast)); n != k {
		t.Fatalf("indexed query returned %d records, want %d", n, k)
	}
	// The gate: segments decoded ≤ k plus a little bloom false-positive
	// slack, with every skip accounted.
	const fpSlack = 4
	if fast.ColdSegments > k+fpSlack {
		t.Fatalf("indexed query decoded %d of %d segments, want ≤ %d", fast.ColdSegments, segs, k+fpSlack)
	}
	if fast.ColdSkippedByIndex != segs-fast.ColdSegments {
		t.Fatalf("skip accounting: decoded %d + skipped %d != %d segments",
			fast.ColdSegments, fast.ColdSkippedByIndex, segs)
	}
	// The fixture and the index's hash seeds are fixed, so the counts are too.
	if fast.ColdSegments != 3 || fast.ColdSkippedByIndex != 77 || fast.ColdRecords != 12 {
		t.Fatalf("indexed query decoded %d, skipped %d, scanned %d records; want 3, 77, 12",
			fast.ColdSegments, fast.ColdSkippedByIndex, fast.ColdRecords)
	}

	// Exhaustive baseline: identical records, every segment decoded.
	ag.SetColdReader(unindexed)
	slow := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{q})[0]
	if slow.ColdSegments != segs || slow.ColdSkippedByIndex != 0 {
		t.Fatalf("unindexed scan decoded %d, skipped %d; want %d, 0",
			slow.ColdSegments, slow.ColdSkippedByIndex, segs)
	}
	fastJSON, _ := json.Marshal(answerRecords(t, fast))
	slowJSON, _ := json.Marshal(answerRecords(t, slow))
	if string(fastJSON) != string(slowJSON) {
		t.Fatalf("indexed answer diverged from exhaustive scan\n--- indexed ---\n%s\n--- exhaustive ---\n%s", fastJSON, slowJSON)
	}

	// Switch gating: a query for a switch no record traversed decodes
	// nothing under the index and everything without it.
	ag.SetColdReader(indexed)
	foreign := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{{Switch: 999, Epochs: simtime.EpochRange{Lo: 0, Hi: 10}}})[0]
	if n := len(answerRecords(t, foreign)); foreign.ColdSegments != 0 || foreign.ColdSkippedByIndex != segs || n != 0 {
		t.Fatalf("foreign-switch query: decoded %d, skipped %d, %d records",
			foreign.ColdSegments, foreign.ColdSkippedByIndex, n)
	}
}
