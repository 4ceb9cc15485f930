package statesync

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"switchpointer/internal/simtime"
)

// TierPolicy decides when a cold segment leaves this tier entirely.
type TierPolicy struct {
	// MaxAgeEpochs is the age bound: a segment whose entire epoch range
	// ended more than MaxAgeEpochs epochs before the sweep time is tiered
	// out. Zero disables tiering.
	MaxAgeEpochs int
	// Alpha is the epoch size the age math uses; required for MaxAgeEpochs.
	Alpha simtime.Time
	// ArchiveDir, when set, receives each tiered payload (same file name)
	// before it leaves the log — the archive seam. Empty deletes payloads.
	ArchiveDir string
}

// TierStats accounts one TierOut sweep.
type TierStats struct {
	// Tiered counts segments whose payload left this tier.
	Tiered int
	// TieredBytes counts their encoded payload bytes.
	TieredBytes int
	// Archived counts payloads copied to ArchiveDir (= Tiered when
	// archiving, 0 when deleting).
	Archived int
}

// TierOut archives-or-deletes every segment whose epoch range ended more
// than p.MaxAgeEpochs epochs ago. The segment's manifest SURVIVES, marked
// Tiered, and the rewritten manifest is committed atomically — so queries
// whose windows reach into tiered history get an honest ErrTiered /
// TieredSegments answer instead of silently missing data, and a reopened
// log still knows what it once held. Concurrent readers keep their views;
// retired payload files are deleted only once no view references them.
func (l *SegmentLog) TierOut(ctx context.Context, now simtime.Time, p TierPolicy) (TierStats, error) {
	var st TierStats
	if p.MaxAgeEpochs <= 0 || p.Alpha <= 0 {
		return st, nil
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	cutoff := simtime.EpochOf(now, p.Alpha) - simtime.Epoch(p.MaxAgeEpochs)

	l.rewriteMu.Lock()
	defer l.rewriteMu.Unlock()

	l.mu.RLock()
	prefix := l.segs
	l.mu.RUnlock()

	var victims []int
	for i := range prefix {
		if !prefix[i].Manifest.Tiered && prefix[i].Manifest.Epochs.Hi < cutoff {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		return st, nil
	}

	// Archive before commit: once the manifest marks a segment tiered, its
	// payload must already be safe in the next tier.
	if p.ArchiveDir != "" {
		if err := os.MkdirAll(p.ArchiveDir, 0o755); err != nil {
			return st, fmt.Errorf("statesync: tier: %w", err)
		}
		for _, i := range victims {
			if err := l.archiveSegment(&prefix[i], p.ArchiveDir); err != nil {
				return st, err
			}
			st.Archived++
		}
	}

	l.mu.Lock()
	cur := l.segs
	newSegs := make([]logSegment, len(cur))
	copy(newSegs, cur)
	var retired []string
	for _, i := range victims {
		st.Tiered++
		st.TieredBytes += newSegs[i].Manifest.Bytes
		retired = append(retired, newSegs[i].file)
		newSegs[i].Manifest.Tiered = true
		newSegs[i].file = ""
	}
	if err := l.rewriteManifestLocked(newSegs); err != nil {
		l.mu.Unlock()
		return TierStats{}, err
	}
	l.segs = newSegs
	l.mu.Unlock()
	l.retire(retired)
	l.tieredOut.Add(uint64(st.Tiered))
	return st, nil
}

// archiveSegment copies one segment's payload file into dir under its name.
func (l *SegmentLog) archiveSegment(seg *logSegment, dir string) error {
	raw, err := os.ReadFile(filepath.Join(l.dir, seg.file))
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, seg.file), raw, 0o644)
	}
	if err != nil {
		return fmt.Errorf("statesync: tier: %w", err)
	}
	return nil
}
