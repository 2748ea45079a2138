// Package wal is a durable write-ahead log for consensus replicas: a
// segmented, CRC-framed append-only log with group commit, plus a
// Recorder that wraps the engine and journals what the replica alone
// knows — the proposals and votes it signed, plus checkpoints — so a
// crashed replica restarts unable to equivocate and takes everything else
// back from its peers.
//
// # Log format
//
// A log is a directory of segment files (wal-00000001.seg, ...). Every
// segment opens with an 8-byte magic; every record is framed as
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// with the payload encoding in record.go. Recovery scans segments in
// order and stops at the first frame that is truncated, oversized, fails
// its CRC, or does not decode — everything before it is the durable
// prefix, everything after it is discarded. Open then repairs the log:
// the damaged segment is truncated to its valid prefix and any later
// segments are emptied (their bytes kept aside as *.seg.corrupt for
// forensics), so segments appended
// by this and subsequent runs extend a clean chain — without the repair,
// a torn frame left by run 1 would permanently fence off everything run
// 2 journals after it. A torn write at the tail therefore loses at most
// the records of the last unsynced group; it can never resurrect
// garbage, and replay re-verifies every signature a record carries, so a
// corrupted-but-CRC-valid entry cannot smuggle a forged vote into the
// engine either.
//
// # Group commit
//
// Durability cost is amortized the way the verification pipeline
// amortizes signature checks: appends land in a user-space buffer, and a
// background syncer flushes + fsyncs the batch once per SyncPolicy
// window (or earlier when SyncPolicy.Bytes accumulate). Every record of
// the window shares one fsync. The price is a bounded durability window:
// a crash loses at most the records appended since the last sync. The
// Recorder closes that window for every record it writes: it forces the
// group to disk before a message this replica signed leaves, and a
// checkpoint syncs as it lands, so the window only batches the own
// records of one action batch into one fsync. SyncPolicy.EveryRecord trades
// the window away for an fsync per append (BenchmarkWALAppend measures
// the gap).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/types"
)

var segMagic = [8]byte{'b', 'a', 'n', 'W', 'A', 'L', '0', '1'}

// ErrClosed reports an append to a closed (or crashed) log.
var ErrClosed = errors.New("wal: log closed")

// maxRecordLen bounds frame payloads so a corrupt length prefix cannot
// trigger a huge allocation; it matches the types package slice cap.
const maxRecordLen = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy says when appended records become durable.
type SyncPolicy struct {
	// EveryRecord fsyncs after every append (no durability window, no
	// amortization). When set, Interval and Bytes are ignored.
	EveryRecord bool
	// Interval is the group-commit window: buffered records are flushed
	// and fsynced at least this often. Zero selects 2ms; negative is
	// equivalent to EveryRecord.
	Interval time.Duration
	// Bytes flushes the group early once this much is buffered. Zero
	// selects 256 KiB.
	Bytes int
}

func (p SyncPolicy) normalize() SyncPolicy {
	if p.Interval < 0 {
		p.EveryRecord = true
	}
	if p.Interval <= 0 {
		p.Interval = 2 * time.Millisecond
	}
	if p.Bytes <= 0 {
		p.Bytes = 256 << 10
	}
	return p
}

// Options tune a log.
type Options struct {
	// Sync is the durability policy (see SyncPolicy).
	Sync SyncPolicy
	// SegmentBytes rotates to a fresh segment file once the current one
	// reaches this size. Zero selects 64 MiB.
	SegmentBytes int
	// FlushHist, when set, records the duration of every group-commit
	// flush (buffer flush + fsync). Recording is a few atomic adds, so
	// it rides inside the lock without extending the group window; nil
	// (the default) records nothing.
	FlushHist *metrics.Histogram
}

func (o Options) normalize() Options {
	o.Sync = o.Sync.normalize()
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Records is the durable record suffix to replay, in append order.
	// When the log holds checkpoints it starts at the newest checkpoint
	// record; everything before it is summarized by that checkpoint and
	// skipped (Skipped counts it).
	Records []Record
	// Skipped is the number of durable records before the newest
	// checkpoint that replay does not need.
	Skipped int
	// HasCheckpoint reports that Records starts with a checkpoint record.
	HasCheckpoint bool
	// Segments is the number of segment files scanned.
	Segments int
	// SegmentsRemoved counts dead pre-checkpoint segment files Open
	// deleted (checkpoint truncation that a crash interrupted).
	SegmentsRemoved int
	// Truncated reports that scanning stopped at an invalid frame (torn
	// write, bad CRC, or undecodable payload) before the end of the data.
	Truncated bool
	// Repaired reports that Open truncated the damaged segment to its
	// valid prefix (and emptied any later segments, keeping their bytes
	// as *.seg.corrupt) so future appends extend a clean chain.
	Repaired bool
}

// Log is an append-only write-ahead log over one directory. Append,
// Sync, Close and Crash are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segIndex uint64
	segBytes int
	pending  int // bytes buffered since the last sync
	closed   bool
	err      error // sticky I/O error

	appends     int64
	syncs       int64
	checkpoints int64
	segsRemoved int64

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// Open creates (or reopens) the log in dir, recovering the durable
// record prefix of any previous run. Appends go to a fresh segment.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, lastIndex, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if err := l.openSegment(lastIndex + 1); err != nil {
		return nil, nil, err
	}
	if !opts.Sync.EveryRecord {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, rec, nil
}

func segName(index uint64) string { return fmt.Sprintf("wal-%08d.seg", index) }

func segIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// recover scans existing segments in index order, decoding records until
// the first invalid frame anywhere (records after a corruption cannot be
// trusted to be in order, so the scan stops for good). It then repairs
// the directory: the damaged segment is truncated to its valid prefix
// and every later segment is quarantined, so the durable prefix on disk
// matches what was recovered and segments appended by this run remain
// reachable by the next recovery instead of being fenced off behind the
// old torn frame.
//
// With checkpoints in the log, the replayable suffix starts at the
// newest checkpoint record: everything before it is state that
// checkpoint summarizes. Segments wholly before the checkpoint's segment
// are dead weight — normally AppendCheckpoint removes them right after
// the checkpoint fsync, but a crash in between leaves them behind, so
// Open finishes the job (the checkpoint is durable first in both paths,
// which is what makes the deletion safe in any order after it).
func recoverDir(dir string) (*Recovery, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var indexes []uint64
	for _, e := range entries {
		if idx, ok := segIndex(e.Name()); ok {
			indexes = append(indexes, idx)
		}
	}
	sort.Slice(indexes, func(i, j int) bool { return indexes[i] < indexes[j] })
	rec := &Recovery{}
	var last uint64
	var badIndex uint64 // segment holding the first invalid frame
	var badLen int      // its valid prefix length in bytes
	var quarantine []uint64
	segOf := make([]uint64, 0, 64) // segment index per recovered record
	for _, idx := range indexes {
		if idx > last {
			last = idx
		}
		if rec.Truncated {
			// A prior segment was corrupt; later data is untrusted.
			quarantine = append(quarantine, idx)
			continue
		}
		rec.Segments++
		data, err := os.ReadFile(filepath.Join(dir, segName(idx)))
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		before := len(rec.Records)
		validLen, clean := scanSegment(data, &rec.Records)
		for i := before; i < len(rec.Records); i++ {
			segOf = append(segOf, idx)
		}
		if !clean {
			rec.Truncated = true
			badIndex, badLen = idx, validLen
		}
	}
	if rec.Truncated {
		if err := repairTail(dir, badIndex, badLen, quarantine); err != nil {
			return nil, 0, err
		}
		rec.Repaired = true
	}
	// Replay from the newest checkpoint.
	ckpt := -1
	for i, r := range rec.Records {
		if r.Kind == KindCheckpoint {
			ckpt = i
		}
	}
	if ckpt >= 0 {
		rec.Skipped = ckpt
		rec.HasCheckpoint = true
		rec.Records = rec.Records[ckpt:]
		// Finish an interrupted truncation: segments wholly before the
		// checkpoint's segment hold only summarized records.
		rec.SegmentsRemoved = removeSegmentsBelow(dir, segOf[ckpt])
	}
	return rec, last, nil
}

// removeSegmentsBelow deletes segment files with index < floor,
// returning how many were removed. Best-effort: a segment that cannot be
// removed is simply re-scanned (and re-skipped) on the next Open.
func removeSegmentsBelow(dir string, floor uint64) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if idx, ok := segIndex(e.Name()); ok && idx < floor {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		syncDir(dir)
	}
	return removed
}

// repairTail quarantines everything after the corruption point, then
// truncates the damaged segment to its valid record prefix. The bytes
// being discarded are first copied aside to *.seg.corrupt (best-effort
// forensics); the live *.seg files themselves are truncated in place —
// later segments to zero length, which scans clean — rather than
// renamed, so the repair's correctness rests only on file fsyncs and
// never on directory fsync, which some filesystems refuse or reorder.
// Ordering is what makes an interrupted repair safe: the torn frame in
// the damaged segment is the marker that a repair is owed, so every
// later segment is durably emptied before that marker is erased. A
// crash mid-repair leaves the marker in place and the next Open redoes
// the repair; the reverse order could leave a cleanly-truncated
// damaged segment followed by discarded-but-CRC-valid segments that
// the next scan would wrongly accept as the voting record.
func repairTail(dir string, badIndex uint64, validLen int, later []uint64) error {
	for _, idx := range later {
		path := filepath.Join(dir, segName(idx))
		quarantineCopy(path)
		if err := truncateSync(path, 0); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, segName(badIndex))
	quarantineCopy(path)
	if err := truncateSync(path, int64(validLen)); err != nil {
		return err
	}
	syncDir(dir) // best-effort durability for the forensic copies
	return nil
}

// quarantineCopy preserves path's current bytes as path+".corrupt" for
// forensics before the repair truncates them away. Best-effort on both
// sides: it never overwrites an earlier copy (a redone repair would
// only have already-truncated bytes to offer), and failures do not
// block the repair — the copy plays no role in correctness.
func quarantineCopy(path string) {
	dst := path + ".corrupt"
	if _, err := os.Lstat(dst); err == nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	os.WriteFile(dst, data, 0o644) //nolint:errcheck
}

// truncateSync truncates path to size and forces the change to disk
// before returning.
func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	if terr := f.Truncate(size); terr == nil {
		err = f.Sync()
	} else {
		err = terr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	return nil
}

// syncDir fsyncs the directory. Errors are ignored: some filesystems
// reject fsync on directories, and nothing correctness-critical depends
// on it — repair durability rides on per-file fsyncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}

// scanSegment appends a segment's valid record prefix to out, returning
// the prefix's byte length and whether the segment was consumed cleanly
// to its end.
func scanSegment(data []byte, out *[]Record) (validLen int, clean bool) {
	if len(data) < len(segMagic) || [8]byte(data[:8]) != segMagic {
		return 0, len(data) == 0
	}
	off := len(segMagic)
	for off < len(data) {
		if off+8 > len(data) {
			return off, false // torn frame header
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecordLen || off+8+int(n) > len(data) {
			return off, false // bogus length or torn payload
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, false // bit rot or torn write inside the frame
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return off, false // CRC-valid but not a record we understand
		}
		*out = append(*out, r)
		off += 8 + int(n)
	}
	return off, true
}

func (l *Log) openSegment(index uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(index)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segIndex = index
	l.segBytes = 0
	if _, err := l.w.Write(segMagic[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Append journals one record. With group commit the record becomes
// durable within the sync window; with EveryRecord it is durable on
// return. The payload is framed in a pooled scratch buffer (the record's
// exact size is known up front), so steady-state appends allocate
// nothing.
func (l *Log) Append(r Record) error {
	bp := types.GetBuffer()
	defer types.PutBuffer(bp)
	buf := *bp
	if need := r.payloadSize(); cap(buf) < need {
		buf = make([]byte, 0, need)
		*bp = buf // let the pool keep the grown buffer
	}
	payload, err := r.appendPayload(buf[:0])
	if err != nil {
		return err
	}
	*bp = payload[:0]
	if len(payload) > maxRecordLen {
		// Recovery rejects frames above maxRecordLen as corruption;
		// journaling one would poison the segment for the next Open.
		return fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), maxRecordLen)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(hdr, payload)
}

func (l *Log) appendLocked(hdr [8]byte, payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		return l.fail(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return l.fail(err)
	}
	size := 8 + len(payload)
	l.segBytes += size
	l.pending += size
	l.appends++
	if l.opts.Sync.EveryRecord || l.pending >= l.opts.Sync.Bytes {
		return l.syncLocked()
	}
	// Leave the group for the background syncer; nudge it so an idle log
	// does not sit on a dirty buffer for a full interval after a burst.
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// AppendCheckpoint journals a checkpoint record and truncates the log
// behind it: the log rotates so the checkpoint opens a fresh segment,
// the checkpoint (and every record before it) is forced to disk, and
// only then are the now-dead earlier segments deleted. A crash anywhere
// in between leaves either the old segments plus a durable checkpoint
// (Open finishes the deletion) or no checkpoint and the old segments
// intact (full replay) — never a gap.
func (l *Log) AppendCheckpoint(r Record) error {
	if r.Kind != KindCheckpoint {
		return fmt.Errorf("wal: AppendCheckpoint with record kind %s", r.Kind)
	}
	payload, err := r.encode()
	if err != nil {
		return err
	}
	if len(payload) > maxRecordLen {
		// A checkpoint recovery would reject as corrupt must never be
		// written — the deletion that follows it would orphan the history
		// it claims to summarize. Refusing here keeps the old segments,
		// so the failure costs replay time, not the voting record.
		return fmt.Errorf("wal: checkpoint payload %d bytes exceeds limit %d", len(payload), maxRecordLen)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	// Rotate so the checkpoint is the first record of its segment; every
	// earlier segment then holds only pre-checkpoint records. A segment
	// that is still empty already satisfies that.
	if l.segBytes > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if err := l.appendLocked(hdr, payload); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	// Make the checkpoint segment's directory entry durable before
	// unlinking anything: file fsync persists the data but not the
	// dirent, and without this barrier a metadata-reordering power loss
	// could apply the unlinks while losing the create — an empty log.
	// syncDir is best-effort on filesystems that refuse directory fsync;
	// on those, Open's finish-the-truncation path is the recovery story.
	syncDir(l.dir)
	l.checkpoints++
	l.segsRemoved += int64(removeSegmentsBelow(l.dir, l.segIndex))
	return nil
}

// Sync forces the buffered group to disk now.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.pending == 0 {
		return nil
	}
	var start time.Time
	if l.opts.FlushHist != nil {
		start = time.Now()
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	if l.opts.FlushHist != nil {
		l.opts.FlushHist.Record(time.Since(start))
	}
	l.pending = 0
	l.syncs++
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	return l.openSegment(l.segIndex + 1)
}

func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	return l.err
}

// Close flushes and fsyncs the tail, then closes the log.
func (l *Log) Close() error {
	return l.shutdown(true)
}

// Crash closes the log abandoning the unsynced group — what a process
// crash does to the user-space buffer. Tests use it to exercise the
// recovery path with a realistic torn tail.
func (l *Log) Crash() {
	l.shutdown(false)
}

func (l *Log) shutdown(flush bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if flush && l.err == nil && l.pending > 0 {
		if ferr := l.w.Flush(); ferr != nil {
			err = ferr
		} else if serr := l.f.Sync(); serr != nil {
			err = serr
		} else {
			l.syncs++
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncLoop is the group-commit goroutine: it fsyncs the buffered group
// once per interval while the log is dirty.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	// Create the timer pre-drained: under go < 1.23 a Reset on a fired,
	// undrained timer would leave the stale initial tick in timer.C and
	// collapse the first group's window to zero.
	timer := time.NewTimer(l.opts.Sync.Interval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.wake:
			// Dirty: wait out the rest of the window, then sync whatever
			// accumulated (the group).
			timer.Reset(l.opts.Sync.Interval)
			select {
			case <-l.done:
				return
			case <-timer.C:
			}
			l.mu.Lock()
			if !l.closed && l.err == nil {
				l.syncLocked() //nolint:errcheck // sticky in l.err
			}
			l.mu.Unlock()
		}
	}
}

// Stats reports append/sync counters (and thereby the amortization
// ratio: appends per fsync).
func (l *Log) Stats() (appends, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// CheckpointStats reports how many checkpoints were written and how many
// dead segments truncation removed over the log's lifetime.
func (l *Log) CheckpointStats() (checkpoints, segmentsRemoved int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpoints, l.segsRemoved
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

var _ io.Closer = (*Log)(nil)
