// Package segstore is the durability tier under the streaming engine: an
// append-only, crash-recoverable log of finalized segments per device.
// The paper's one-pass simplifiers shrink a stream to segment batches;
// this package is where those batches land so a server restart (or an
// outright crash) loses nothing that was acknowledged.
//
// Layout: one directory per device (ID percent-escaped), holding
// size-rotated files 00000001.seg, 00000002.seg, … Each file starts with
// a 4-byte magic and continues with CRC-framed records (enc.AppendFrame)
// whose payloads are varint delta-coded segment batches (record.go).
// Only TSG3 files are written: inside one, a record that does not open
// a time-index entry is chained to the record before it, so an index
// entry, not a record, is self-contained. TSG2 (v2 records) and TSG1
// (v1 records) files hold chain starts only; they are still read, and a
// log whose newest file is one of them rotates before its first append
// after an upgrade, so a build that cannot decode chained records
// refuses a TSG3 file rather than truncating them as a torn tail.
// A file decodes front to back, so recovery is a scan that truncates
// the log at the first incomplete or corrupt frame of the newest file —
// a torn tail from a crash mid-write — while any damage earlier in the
// log is reported as corruption rather than silently skipped.
//
// The store is resource-bounded the same way the paper's encoders are:
// at most Config.MaxOpenFiles device logs hold an open file handle and
// at most 65,536 keep their metadata in memory (one residency walk
// transparently closes, drops and reopens cold logs; handles.go), and
// per-device disk usage is bounded by Config.MaxLogBytes /
// Config.MaxLogAge retention, enforced by deleting whole rotated files
// oldest-first (compact.go) — so millions of devices streaming forever
// cost neither millions of descriptors nor unbounded memory or disk.
//
// Every append is a write followed by a commit. AppendNoSync and
// CommitDevices implement stream.Sink, so a Store plugs directly into
// stream.Config.Sink: each sink-writer sweep makes one AppendNoSync per
// device (one write per record of up to 16,384 segments, fsync
// withheld), then one CommitDevices for the whole sweep, so K devices ×
// M batches cost at most K fsyncs under SyncAlways instead of K×M.
// Append is the same write and commit for one device, in one hold of
// its lock.
package segstore

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// Errors reported by the Store, besides ErrCorrupt.
var (
	// ErrClosed is returned by operations after Close.
	ErrClosed = errors.New("segstore: store closed")
	// ErrDeviceID is returned for an empty or over-long device ID.
	ErrDeviceID = errors.New("segstore: bad device ID")
)

const (
	fileMagic   = "TSG3"
	fileMagicV2 = "TSG2" // files of unchained v2 records, written before TSG3
	fileMagicV1 = "TSG1" // files of v1 records only, written before TSG2
	fileSuffix  = ".seg"
	tmpSuffix   = ".tmp"
	// maxDeviceID caps device IDs so their escaped form (≤ 3 bytes per
	// rune byte) stays a legal directory name everywhere. It equals
	// stream.MaxDevice (asserted in tests) so everything the engine
	// ingests is persistable.
	maxDeviceID = 80

	// DefaultMaxFileSize is the rotation threshold when Config.MaxFileSize
	// is zero.
	DefaultMaxFileSize = 64 << 20
	// DefaultSyncEvery is the background fsync period for SyncInterval
	// when Config.SyncEvery is zero.
	DefaultSyncEvery = time.Second
	// DefaultMaxOpenFiles is the open-handle cap when Config.MaxOpenFiles
	// is zero: generous enough that modest fleets never evict, far below
	// typical fd rlimits.
	DefaultMaxOpenFiles = 1024
	// DefaultReadCacheBytes is the granule-cache budget trajserve passes
	// by default. Config.ReadCacheBytes has no implicit default — the
	// zero Config keeps the cache off.
	DefaultReadCacheBytes = 64 << 20

	// defaultQuarantineBase is the first reopen backoff after a log is
	// poisoned; attempts double it up to defaultQuarantineMax. Tests
	// shrink Store.quarBase to exercise the recovery path quickly.
	defaultQuarantineBase = 250 * time.Millisecond
	defaultQuarantineMax  = time.Minute
)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs dirty logs from a background
	// goroutine every Config.SyncEvery — bounded data loss, near-zero
	// per-append cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs at every commit — once per dirty log per
	// CommitDevices call, once per Append — and syncs the directory on
	// file creation: maximum durability.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

// String implements fmt.Stringer (and flag.Value's read side).
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "interval", "always" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("segstore: unknown sync policy %q (interval, always, never)", s)
}

// Config parameterizes Open. Only Dir is required.
type Config struct {
	// Dir is the root directory; created if missing.
	Dir string
	// MaxFileSize rotates a device's log file once appending would grow
	// it past this many bytes; 0 selects DefaultMaxFileSize — or, when
	// MaxLogBytes is set, a quarter of that budget (floored at 4 KiB),
	// since retention deletes whole rotated files and 64 MiB monoliths
	// would give a small budget no granularity to work with.
	MaxFileSize int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// SyncEvery is the period of the background maintenance loop —
	// SyncInterval fsyncs and retention passes alike; 0 selects
	// DefaultSyncEvery.
	SyncEvery time.Duration
	// MaxOpenFiles caps how many device logs hold an open file handle at
	// once; colder logs are transparently closed and reopened on their
	// next append. 0 selects DefaultMaxOpenFiles; negative is an error.
	// The cap holds at quiescence; while logs are mid-operation or
	// pinned by a pending commit it may be exceeded. It is the one
	// residency knob: the walk enforcing it also keeps at most 65,536
	// logs' metadata in memory (handles.go).
	MaxOpenFiles int
	// MaxLogBytes, when positive, bounds each device's log on disk:
	// whole rotated files are deleted oldest-first while the total
	// exceeds it. The active file is never deleted, so the effective
	// bound is MaxLogBytes + one file. 0 keeps everything.
	MaxLogBytes int64
	// MaxLogAge, when positive, ages out records older than this: whole
	// rotated files whose last append is older are deleted, and the
	// expired record prefix of the oldest surviving file is truncated
	// away (at index-entry granularity, once it is worth a rewrite). The
	// active file is never deleted and always keeps its newest records,
	// so a log can still answer where its device last was. 0 keeps
	// everything.
	MaxLogAge time.Duration
	// ReadCacheBytes, when positive, enables the store-wide read cache
	// (cache.go) with that byte budget: index-entry spans decode once,
	// are kept packed at 24 bytes a segment, and hot ReplayRange and
	// SegmentAt queries are served from memory with no I/O. 0 disables
	// the cache (every read goes to disk, as before); negative is an
	// error. DefaultReadCacheBytes is a sensible serving-tier budget.
	ReadCacheBytes int64
}

// Stats are store-wide counters, all cumulative except OpenHandles.
type Stats struct {
	Appends    int64 `json:"appends"`     // Append/AppendNoSync calls that wrote records
	Segments   int64 `json:"segments"`    // segments persisted
	Bytes      int64 `json:"bytes"`       // record bytes written (incl. framing)
	Syncs      int64 `json:"syncs"`       // explicit fsync calls
	GroupSyncs int64 `json:"group_syncs"` // fsyncs issued by commits (CommitDevices or Append)
	Recovered  int64 `json:"truncations"` // torn tails truncated during recovery

	PoisonedLogs      int64 `json:"poisoned_logs"`      // device logs quarantined by a write/fsync failure right now
	QuarantineReopens int64 `json:"quarantine_reopens"` // quarantined logs successfully re-recovered and resumed

	OpenHandles     int64 `json:"open_handles"`     // device logs holding an open file now
	HandleHits      int64 `json:"handle_hits"`      // appends that found their file open
	HandleMisses    int64 `json:"handle_misses"`    // appends that had to open (or create) a file
	HandleEvictions int64 `json:"handle_evictions"` // cold handles closed by the residency walk

	ResidentLogs  int64 `json:"resident_logs"`  // device logs with metadata in memory now
	MetaEvictions int64 `json:"meta_evictions"` // cold logs' metadata dropped by the residency walk

	IndexWrites   int64 `json:"index_writes"`   // time-index sidecars persisted
	IndexRebuilds int64 `json:"index_rebuilds"` // sidecars rebuilt from data (missing/corrupt/stale)

	ReclaimedBytes    int64 `json:"reclaimed_bytes"`    // bytes deleted by retention
	DeletedFiles      int64 `json:"deleted_files"`      // files deleted by retention
	PrefixTruncations int64 `json:"prefix_truncations"` // files rewritten to drop an expired record prefix

	ReadBytes      int64 `json:"read_bytes"`        // record bytes preaded by queries and replays
	ReadCacheHits  int64 `json:"read_cache_hits"`   // granule reads served from the cache (no I/O)
	ReadCacheMiss  int64 `json:"read_cache_misses"` // granule reads that fetched from disk
	ReadCacheBytes int64 `json:"read_cache_bytes"`  // packed bytes resident in the cache now

	ReadCacheDeclined int64 `json:"read_cache_declined"` // misses read from disk that the cache chose not to keep
}

// Store is an append-only segment log over one directory. All methods
// are safe for concurrent use; appends for different devices proceed in
// parallel.
type Store struct {
	cfg         Config
	fs          fileSystem       // osFS in production; a fault injector in tests
	now         func() time.Time // wall clock for index entries and quarantine backoff; fixed in tests
	idxGran     int64            // index coalescing span; shrunk in tests
	quarBase    time.Duration    // first quarantine reopen backoff; shrunk in tests
	quarMax     time.Duration    // backoff cap
	maxResident int              // resident-log budget (residentLogs); shrunk in tests

	mu       sync.Mutex            // the residency lock (handles.go), never held across I/O
	logs     map[string]*deviceLog //trajlint:guardedby mu
	resident list.List             //trajlint:guardedby mu -- every *deviceLog in logs, most recently touched at the front
	handles  list.List             //trajlint:guardedby mu -- the *deviceLogs holding an open file, most recently appended at the front

	cache *granuleCache // nil when Config.ReadCacheBytes is 0

	appends    atomic.Int64
	segments   atomic.Int64
	bytes      atomic.Int64
	syncs      atomic.Int64
	groupSyncs atomic.Int64
	recovered  atomic.Int64

	poisonedLogs atomic.Int64 // gauge: logs quarantined right now
	quarReopens  atomic.Int64

	handleHits      atomic.Int64
	handleMisses    atomic.Int64
	handleEvictions atomic.Int64
	metaEvictions   atomic.Int64
	indexWrites     atomic.Int64
	indexRebuilds   atomic.Int64
	reclaimedBytes  atomic.Int64
	deletedFiles    atomic.Int64
	prefixTruncs    atomic.Int64
	readBytes       atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
	maint  sync.WaitGroup
}

// deviceLog is one device's on-disk state. Opened lazily: recovery work
// happens at the first Append or Replay touching the device, not at
// store Open, so startup cost does not scale with the device population.
// The residency walk (handles.go) takes the file handle of a cold log,
// and drops an idle log's metadata (file list, append offset) once more
// logs than its budget are resident.
type deviceLog struct {
	// The per-device log lock is the write path's designed
	// serialization point: appends, rotation, retention and recovery
	// all do their file I/O under it (and only it), which is why it —
	// alone in the repo — carries the lockio exemption.
	//
	//trajlint:serializes-io
	mu      sync.Mutex
	device  string
	dir     string
	opened  bool   //trajlint:guardedby mu
	evicted bool   //trajlint:guardedby mu -- the residency walk dropped this instance; holders must re-resolve
	seqs    []int  //trajlint:guardedby mu -- existing file numbers, ascending; set through setSeqs
	newest  string //trajlint:guardedby mu -- path of the newest file in seqs, "" when there is none
	f       file   //trajlint:guardedby mu -- newest file, open for append; nil until first write or after eviction
	closing int    //trajlint:guardedby mu -- files the walk detached that settle has not yet closed
	size    int64  //trajlint:guardedby mu -- valid bytes in the newest file
	dirty   bool   //trajlint:guardedby mu -- has unsynced writes
	legacy  bool   //trajlint:guardedby mu -- the newest file is TSG1 or TSG2, which take no chained record; the next append rotates first
	chain   chain  //trajlint:guardedby mu -- what the newest file's next record continues, as of size: it moves only with bytes on disk

	// Quarantine state. A write or fsync failure poisons the log: failed
	// is set, the file handle is discarded (a failed fsync is never
	// retried on the same descriptor — the kernel may have dropped the
	// dirty pages), and appends are rejected with the sticky failure
	// until quarNext. After that, the next append attempts recovery:
	// metadata is discarded and the log re-runs torn-tail recovery from
	// disk, resuming appends on success or backing off exponentially
	// (capped) on another failure.
	failed    error     //trajlint:guardedby mu -- sticky failure; non-nil while quarantined
	quarNext  time.Time //trajlint:guardedby mu -- earliest next reopen attempt
	quarTries int       //trajlint:guardedby mu -- consecutive failed reopen attempts

	// Sparse time index: tail covers the newest file (built by the open
	// scan, extended per append); idxCache holds sealed files' indexes
	// loaded from sidecars or rebuilt from data.
	tail     []indexEntry      //trajlint:guardedby mu
	idxCache map[int]fileIndex //trajlint:guardedby mu

	// Reusable append scratch (payload encode, CRC framing), guarded by
	// mu like the rest of the log: steady-state appends allocate
	// nothing.
	payload []byte //trajlint:guardedby mu
	frame   []byte //trajlint:guardedby mu

	// pins counts writes awaiting their commit (CommitDevices, or the
	// commit step inside Append). The residency walk leaves a pinned log
	// its handle (and its metadata), so the fsync the commit owes lands
	// on the same open file the writes went to.
	pins int //trajlint:guardedby mu

	// readPins counts live read snapshots per file (by seq). A pinned
	// file is never deleted or prefix-truncated by retention (compact.go)
	// and keeps this instance's metadata resident, so snapshot readers
	// decode stable bytes without holding mu.
	readPins map[int]int //trajlint:guardedby mu

	residentElem *list.Element //trajlint:guardedby Store.mu -- position in Store.resident
	handleElem   *list.Element //trajlint:guardedby Store.mu -- position in Store.handles while f is open
}

// Open validates cfg, creates the root directory, and returns a running
// Store. Per-device recovery is lazy (see deviceLog).
func Open(cfg Config) (*Store, error) {
	return openFS(cfg, osFS{})
}

// openFS is Open over an injectable filesystem — the seam fault-injection
// tests use to fail any chosen file operation.
func openFS(cfg Config, fsys fileSystem) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("segstore: Config.Dir is required")
	}
	if cfg.MaxLogBytes < 0 {
		return nil, fmt.Errorf("segstore: negative MaxLogBytes %d", cfg.MaxLogBytes)
	}
	if cfg.MaxFileSize <= 0 {
		cfg.MaxFileSize = DefaultMaxFileSize
		if cfg.MaxLogBytes > 0 {
			if q := cfg.MaxLogBytes / 4; q < cfg.MaxFileSize {
				cfg.MaxFileSize = max(q, 4<<10)
			}
		}
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if cfg.MaxOpenFiles < 0 {
		return nil, fmt.Errorf("segstore: negative MaxOpenFiles %d", cfg.MaxOpenFiles)
	}
	if cfg.MaxOpenFiles == 0 {
		cfg.MaxOpenFiles = DefaultMaxOpenFiles
	}
	if cfg.MaxLogAge < 0 {
		return nil, fmt.Errorf("segstore: negative MaxLogAge %v", cfg.MaxLogAge)
	}
	if cfg.ReadCacheBytes < 0 {
		return nil, fmt.Errorf("segstore: negative ReadCacheBytes %d", cfg.ReadCacheBytes)
	}
	if _, err := ParseSyncPolicy(cfg.Sync.String()); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	s := &Store{
		cfg:         cfg,
		fs:          fsys,
		now:         defaultNow,
		idxGran:     defaultIndexGranularity,
		quarBase:    defaultQuarantineBase,
		quarMax:     defaultQuarantineMax,
		maxResident: residentLogs,
		logs:        make(map[string]*deviceLog),
		stop:        make(chan struct{}),
	}
	if cfg.ReadCacheBytes > 0 {
		s.cache = newGranuleCache(cfg.ReadCacheBytes)
	}
	if cfg.Sync == SyncInterval || s.retentionOn() {
		s.maint.Add(1)
		go s.runMaintenance()
	}
	return s, nil
}

// escapeDevice maps a device ID to a filesystem-safe directory name:
// [a-z0-9_-] kept, every other byte %XX. Uppercase letters are escaped
// too — uppercase appears only in the (deterministic) hex digits, so two
// distinct IDs can never produce names differing only in case, which
// would collide on case-insensitive filesystems (APFS, NTFS). "." and
// ".." are unrepresentable outputs.
func escapeDevice(dev string) string {
	const hex = "0123456789ABCDEF"
	var sb strings.Builder
	for i := 0; i < len(dev); i++ {
		c := dev[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			sb.WriteByte(c)
			continue
		}
		sb.WriteByte('%')
		sb.WriteByte(hex[c>>4])
		sb.WriteByte(hex[c&0xF])
	}
	return sb.String()
}

// unhex decodes one uppercase hex digit — exactly the alphabet
// escapeDevice emits, so lowercase hex is a foreign name, not an alias.
func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// unescapeDevice inverts escapeDevice; it fails on names a Store never
// writes, which is how Devices skips foreign directory entries. Accepted
// names are canonical — escapeDevice(unescapeDevice(name)) == name — so
// two distinct directory names can never alias one device ID (lowercase
// hex and escapes of bytes escapeDevice keeps verbatim are rejected).
func unescapeDevice(name string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '%':
			if i+2 >= len(name) {
				return "", fmt.Errorf("segstore: truncated escape in %q", name)
			}
			hi, ok1 := unhex(name[i+1])
			lo, ok2 := unhex(name[i+2])
			if !ok1 || !ok2 {
				return "", fmt.Errorf("segstore: bad escape in %q", name)
			}
			v := hi<<4 | lo
			if v >= 'a' && v <= 'z' || v >= '0' && v <= '9' || v == '_' || v == '-' {
				return "", fmt.Errorf("segstore: non-canonical escape %%%c%c in %q", name[i+1], name[i+2], name)
			}
			sb.WriteByte(v)
			i += 2
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-':
			sb.WriteByte(c)
		default:
			return "", fmt.Errorf("segstore: unexpected byte %q in %q", c, name)
		}
	}
	return sb.String(), nil
}

// log resolves device's resident log, creating it (and running the
// residency walk) on first touch, else refreshing its recency: its
// handle's too, forAppend. Readers open their own descriptors.
func (s *Store) log(device string, forAppend bool) (*deviceLog, error) {
	if device == "" || len(device) > maxDeviceID {
		return nil, fmt.Errorf("%w: %q", ErrDeviceID, device)
	}
	var cold []detached // a creation walk detaches only what earlier walks skipped
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	l := s.logs[device]
	if l == nil {
		l = &deviceLog{device: device, dir: filepath.Join(s.cfg.Dir, escapeDevice(device))}
		s.logs[device] = l
		l.residentElem = s.resident.PushFront(l)
		cold = s.trimLocked(l, cold)
	} else {
		s.resident.MoveToFront(l.residentElem)
		if forAppend && l.handleElem != nil {
			s.handles.MoveToFront(l.handleElem)
		}
	}
	s.mu.Unlock()
	s.settle(cold)
	return l, nil
}

// lockLog resolves device's resident log and returns it with its mutex
// held, retrying if the residency walk dropped the instance between
// lookup and lock — the window where a stale pointer and a fresh
// instance could otherwise both touch the same files.
//
//trajlint:returns-locked mu
func (s *Store) lockLog(device string, forAppend bool) (*deviceLog, error) {
	for {
		l, err := s.log(device, forAppend)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if !l.evicted {
			return l, nil
		}
		l.mu.Unlock()
	}
}

func fileName(seq int) string { return fmt.Sprintf("%08d%s", seq, fileSuffix) }

func (l *deviceLog) path(seq int) string { return filepath.Join(l.dir, fileName(seq)) }

// setSeqs replaces l's file list and keeps l.newest, the path a cold
// append reopens, in step with it, so a handle miss formats no path.
// Caller holds l.mu.
//
//trajlint:holds l.mu
func (l *deviceLog) setSeqs(seqs []int) {
	l.seqs, l.newest = seqs, ""
	if n := len(seqs); n > 0 {
		l.newest = l.path(seqs[n-1])
	}
}

// scanLog walks one file's bytes and returns its time index, stamped
// wall (the file mtime, since a scan cannot know each record's true
// append time), the length of the valid prefix, and the chain the
// file's next record would continue. Entries open only at chain starts
// — a chained record belongs to the entry its chain started in — and
// coalesce until one spans gran bytes: the grouping the append path
// applies (addTail), so a rebuilt index equals the one appends built,
// whatever the granularity. A short or corrupt record ends the scan
// (validLen marks where); only a bad file header is an outright error.
// All three file magics are accepted: records carry their own layout
// (record.go). Memory is one record's segments, however long the file.
func scanLog(b []byte, wall, gran int64) (idx []indexEntry, validLen int64, c chain, err error) {
	if len(b) < len(fileMagic) {
		return nil, 0, chain{}, nil // torn during creation: nothing recoverable
	}
	if m := string(b[:len(fileMagic)]); m != fileMagic && m != fileMagicV2 && m != fileMagicV1 {
		return nil, 0, chain{}, fmt.Errorf("%w: bad file magic %q", ErrCorrupt, m)
	}
	var segs []traj.Segment
	off := int64(len(fileMagic))
	for off < int64(len(b)) {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return idx, off, c, nil
		}
		before := c
		if segs, err = decodeRecordPayload(segs[:0], payload, &c); err != nil {
			// CRC-valid but undecodable: stop here too, so everything the
			// scan admits is replayable.
			return idx, off, before, nil
		}
		if minT, maxT, ok := segTimeRange(segs); ok {
			if k := len(idx) - 1; k >= 0 && (chainedRecord(payload) || off-idx[k].off < gran) {
				e := &idx[k]
				e.minT = min(e.minT, minT)
				e.maxT = max(e.maxT, maxT)
			} else {
				idx = append(idx, indexEntry{off: off, minT: minT, maxT: maxT, wall: wall})
			}
		}
		off += int64(n)
	}
	return idx, off, c, nil
}

// segTimeRange returns the earliest segment start and latest segment end
// of one record's batch; ok is false for an empty batch (the store never
// writes one, but a scan stays robust to it).
func segTimeRange(segs []traj.Segment) (minT, maxT int64, ok bool) {
	if len(segs) == 0 {
		return 0, 0, false
	}
	minT, maxT = segs[0].Start.T, segs[0].End.T
	for _, s := range segs[1:] {
		minT = min(minT, s.Start.T)
		maxT = max(maxT, s.End.T)
	}
	return minT, maxT, true
}

// listSeqs returns the ascending log-file sequence numbers in dir; a
// missing directory lists as empty. Entries a Store never writes are
// skipped. The second result lists strays the store should sweep:
// index sidecars orphaned by a deleted data file, and temp files left
// by a crash mid-rewrite.
func (s *Store) listSeqs(dir string) ([]int, []string, error) {
	entries, err := s.fs.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("segstore: %w", err)
	}
	var seqs []int
	var idxSeqs []int
	var strays []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, fileSuffix):
			seq, err := strconv.Atoi(strings.TrimSuffix(name, fileSuffix))
			if err != nil || seq <= 0 || fileName(seq) != name {
				continue
			}
			seqs = append(seqs, seq)
		case strings.HasSuffix(name, idxSuffix):
			seq, err := strconv.Atoi(strings.TrimSuffix(name, idxSuffix))
			if err != nil || seq <= 0 || idxName(seq) != name {
				continue
			}
			idxSeqs = append(idxSeqs, seq)
		case strings.HasSuffix(name, tmpSuffix):
			strays = append(strays, name)
		}
	}
	sort.Ints(seqs)
	live := make(map[int]bool, len(seqs))
	for _, seq := range seqs {
		live[seq] = true
	}
	for _, seq := range idxSeqs {
		if !live[seq] {
			strays = append(strays, idxName(seq))
		}
	}
	return seqs, strays, nil
}

// open lists the device's files and recovers the newest one, truncating
// a torn tail so the append offset lands on a record boundary. It leaves
// no file handle behind — the append path opens one on demand, under the
// MaxOpenFiles budget, so a replay-only sweep of a million devices costs
// no lingering descriptors. Caller holds l.mu.
//
//trajlint:holds l.mu
func (l *deviceLog) open(s *Store) error {
	if l.opened {
		return nil
	}
	seqs, strays, err := s.listSeqs(l.dir)
	if err != nil {
		return err
	}
	// First contact sweeps strays: sidecars orphaned by a crash between
	// deleting an index and its data file, and temp files from a crash
	// mid-rewrite. Both are advisory debris — removal loses nothing.
	for _, name := range strays {
		_ = s.fs.Remove(filepath.Join(l.dir, name))
	}
	l.setSeqs(seqs)
	if len(l.seqs) == 0 {
		l.opened = true
		return nil
	}
	fi, err := s.fs.Stat(l.newest)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	b, err := s.fs.ReadFile(l.newest)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	// The recovery scan doubles as the tail-index rebuild: the newest
	// file's index is never persisted (it changes on every append), so
	// it is reconstructed here from the same pass that validates the
	// file. Wall stamps fall back to the file mtime — the last append —
	// which keeps record-range retention no more aggressive than the
	// whole-file mtime rule ever was.
	// It also recovers the chain the next record continues.
	entries, validLen, c, err := scanLog(b, fi.ModTime().UnixMilli(), s.idxGran)
	if err != nil {
		return fmt.Errorf("%w (%s)", err, l.newest)
	}
	// A torn tail is at most the bytes of one interrupted record write.
	// Anything longer means damage inside previously acknowledged data —
	// report it instead of silently truncating acknowledged records away.
	if torn := int64(len(b)) - validLen; torn > maxTornTail {
		return fmt.Errorf("%w: %d invalid bytes at offset %d — more than one torn write (%s)",
			ErrCorrupt, torn, validLen, l.newest)
	}
	// A TSG1 or TSG2 file takes no chained record: the next append
	// rotates past it.
	l.legacy = validLen >= int64(len(fileMagic)) && string(b[:len(fileMagic)]) != fileMagic
	if validLen < int64(len(b)) || validLen < int64(len(fileMagic)) {
		f, err := s.fs.OpenFile(l.newest, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("segstore: %w", err)
		}
		if validLen < int64(len(b)) {
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return fmt.Errorf("segstore: truncate torn tail: %w", err)
			}
			s.recovered.Add(1)
		}
		// A file torn during creation recovers to zero bytes; restore its
		// header now so subsequent appends land in a valid file instead of
		// producing a magic-less log the next open would call corrupt.
		if validLen < int64(len(fileMagic)) {
			if _, err := f.WriteAt([]byte(fileMagic), 0); err != nil {
				f.Close()
				return fmt.Errorf("segstore: rewrite header: %w", err)
			}
			validLen = int64(len(fileMagic))
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("segstore: %w", err)
		}
	}
	l.size, l.tail, l.chain = validLen, entries, c
	l.opened = true
	// First contact in this process: bring a log written under older (or
	// no) retention limits within budget.
	_ = s.compactLocked(l)
	return nil
}

// nextFile starts the log's next file, file 1 for a log with none, and
// makes it the append target. A log that has a file seals it first:
// fsynced (unless SyncNever) and closed, quarantining the log on
// failure. The log moves to the new file only once createFile has done
// every fallible step of making it, so no append ever writes into a
// file whose creation failed (its directory fsync, say). After a failed
// create the log keeps the file it had, if any, as its append target:
// handle reopens it at the tracked offset, its tail index still live,
// and the next append retries the same seq. Caller holds l.mu, with l.f
// open if the log has a file.
//
//trajlint:holds l.mu
func (s *Store) nextFile(l *deviceLog) error {
	seq := 1
	if n := len(l.seqs); n > 0 {
		seq = l.seqs[n-1] + 1
	}
	sealing := l.f != nil
	if sealing {
		if s.cfg.Sync != SyncNever {
			if _, err := s.syncLocked(l, "rotate"); err != nil {
				return err
			}
		}
		err := l.f.Close()
		l.f = nil
		if err != nil {
			// Close can surface deferred write-back errors; treat it like a
			// failed fsync rather than sealing a file of unknown durability.
			return s.poisonLocked(l, fmt.Errorf("segstore: rotate %s: close: %w", l.device, err))
		}
	}
	f, err := s.createFile(l.dir, l.path(seq))
	if err != nil {
		_ = s.dropHandle(l) // the handle list holds only logs with a file
		return err
	}
	if sealing {
		// Rotation is the moment a file becomes immutable: the one point
		// where persisting its index is final. Best effort: a failed sidecar
		// write costs a rebuild on the next range read, never the append.
		_ = l.writeIndex(s, seq-1, l.size, l.tail)
		l.cacheIndex(seq-1, fileIndex{entries: l.tail, dataLen: l.size})
	}
	l.f, l.size, l.dirty, l.legacy = f, int64(len(fileMagic)), true, false
	l.chain, l.tail = chain{}, nil // the sealed tail now belongs to the cache
	l.setSeqs(append(l.seqs, seq))
	s.registerHandle(l)
	if sealing {
		// Rotation is the moment the log grows past a file boundary:
		// enforce retention now, while the budget overshoot is one file.
		// Failure here must not fail the append; the maintenance loop
		// retries on its next tick.
		_ = s.compactLocked(l)
	}
	return nil
}

// createFile makes the log file at path, holding only its header: the
// device directory if missing, an O_EXCL open, the magic and, under
// SyncAlways, a directory fsync so the new entry survives a crash. On
// any failure it removes the file it made, or every retry of the same
// seq would hit O_EXCL and wedge the device until restart.
func (s *Store) createFile(dir, path string) (file, error) {
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	if _, err = f.Write([]byte(fileMagic)); err != nil {
		err = fmt.Errorf("segstore: %w", err)
	} else if s.cfg.Sync == SyncAlways {
		err = s.syncDir(dir)
	}
	if err != nil {
		f.Close()
		s.fs.Remove(path)
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so freshly created file entries survive a
// crash.
func (s *Store) syncDir(dir string) error {
	d, err := s.fs.Open(dir)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("segstore: sync dir: %w", err)
	}
	return nil
}

// syncLocked fsyncs l's open file if it holds unsynced bytes and
// reports whether it did. A failed fsync quarantines the log, since
// the kernel may have dropped the dirty pages and a retry on the same
// descriptor would report success for them; op names the caller in the
// error. Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) syncLocked(l *deviceLog, op string) (synced bool, err error) {
	if !l.dirty || l.f == nil {
		return false, nil
	}
	if err := l.f.Sync(); err != nil {
		return false, s.poisonLocked(l, fmt.Errorf("segstore: %s %s: %w", op, l.device, err))
	}
	l.dirty = false
	s.syncs.Add(1)
	return true, nil
}

// Append persists one batch of finalized segments for device: the write
// AppendNoSync does plus the commit step of CommitDevices, in one hold
// of the device lock, so no concurrent same-device rotation can poison
// the log in between and Append never acknowledges bytes whose commit
// fsync failed. A torn append is truncated away on the next open, never
// replayed as garbage. Batches larger than recordChunk (16,384
// segments) split into records written one at a time, so such a batch
// is not all-or-nothing: a crash, or a write or rotation that fails
// between its records, can leave its earlier records in the log
// without the rest.
func (s *Store) Append(device string, segs []traj.Segment) error {
	if len(segs) == 0 {
		return nil
	}
	l, err := s.lockLog(device, true)
	if err != nil {
		return err
	}
	unpinned := false
	if err = s.appendLocked(l, segs); err == nil {
		unpinned, err = s.commitLocked(l)
	}
	l.mu.Unlock()
	if unpinned {
		s.trim()
	}
	return err
}

// AppendNoSync writes the same bytes as Append but leaves the log dirty
// and pinned — exempt from the residency walk — until a CommitDevices
// call settles it, so the only thing at risk before the commit is the
// fsync. The pair is the stream.Sink the engine's sink writers drive.
func (s *Store) AppendNoSync(device string, segs []traj.Segment) error {
	if len(segs) == 0 {
		return nil
	}
	l, err := s.lockLog(device, true)
	if err != nil {
		return err
	}
	defer l.mu.Unlock()
	return s.appendLocked(l, segs)
}

// appendLocked writes segs to l's log, one write per record, and on
// success leaves it dirty with one more pin for a commit to release. A
// record is indexed and its chain taken up only once its write has
// succeeded, so l.tail and l.chain always describe what l.size does.
// Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) appendLocked(l *deviceLog, segs []traj.Segment) error {
	// Re-check under the log lock: Close closes file handles under it, so
	// an append that got its log before Close must not reopen files (or
	// write unsynced data) behind a closed store.
	if s.closed.Load() {
		return ErrClosed
	}
	// A quarantined log rejects appends with its sticky failure until the
	// backoff deadline, then attempts recovery right here.
	if err := s.tryUnquarantine(l); err != nil {
		return err
	}
	if err := l.open(s); err != nil {
		return err
	}
	// Reopen the newest file if the residency walk took it; a log with
	// no files yet gets file 1 from nextFile below.
	if err := l.handle(s); err != nil {
		return err
	}
	var written int64
	wall := s.nowMs()
	for off := 0; off < len(segs); off += recordChunk {
		chunk := segs[off:min(off+recordChunk, len(segs))]
		// A record opens an index entry once the current one spans the
		// index granularity, and the record that opens one is a chain
		// start; every other record continues the chain (record.go).
		c := l.chain
		var entry int64 // offset of the index entry the record would join
		if n := len(l.tail); n > 0 {
			entry = l.tail[n-1].off
		}
		if l.size-entry >= s.idxGran {
			c.ok = false
		}
		next := l.encodeRecord(chunk, c)
		if l.f == nil || l.legacy || l.size > int64(len(fileMagic)) && l.size+int64(len(l.frame)) > s.cfg.MaxFileSize {
			if err := s.nextFile(l); err != nil {
				return err
			}
			if c.ok {
				// A new file starts a new chain.
				c = chain{}
				next = l.encodeRecord(chunk, c)
			}
		}
		// One frame per write keeps a torn write within maxTornTail, the
		// invalid tail recovery truncates rather than calls corruption.
		n, err := l.f.Write(l.frame)
		if err != nil {
			// A partial write is a torn tail; try to cut it off now so the
			// log stays clean for in-process readers. If even that fails,
			// poison the log rather than append after garbage.
			if n > 0 {
				if terr := l.f.Truncate(l.size); terr == nil {
					if _, serr := l.f.Seek(l.size, 0); serr == nil {
						return fmt.Errorf("segstore: append %s: %w", l.device, err)
					}
				}
				return s.poisonLocked(l, fmt.Errorf("segstore: log %s unwritable after torn append: %w", l.device, err))
			}
			return fmt.Errorf("segstore: append %s: %w", l.device, err)
		}
		minT, maxT, _ := segTimeRange(chunk)
		l.addTail(indexEntry{off: l.size, minT: minT, maxT: maxT, wall: wall}, !c.ok)
		l.size += int64(n)
		l.chain = next
		l.dirty = true
		written += int64(n)
	}
	l.pins++
	s.appends.Add(1)
	s.segments.Add(int64(len(segs)))
	s.bytes.Add(written)
	return nil
}

// encodeRecord encodes segs as one record chained to c (a chain start
// unless c.ok) into l.frame, framed, and returns the chain it leaves.
// Caller holds l.mu.
//
//trajlint:holds l.mu
func (l *deviceLog) encodeRecord(segs []traj.Segment, c chain) chain {
	l.payload, c = appendRecordPayload(l.payload[:0], segs, c)
	l.frame = enc.AppendFrame(l.frame[:0], l.payload)
	return c
}

// CommitDevices settles a group of deferred AppendNoSync writes: for
// each named device it releases one handle pin and, under SyncAlways,
// fsyncs the log if it still holds unsynced bytes — one fsync per dirty
// file no matter how many deferred appends targeted it, which is the
// whole point: a sweep over K devices costs at most K fsyncs. Devices
// with no resident log or nothing left to sync are no-ops; under
// SyncInterval/SyncNever only the pin is released. The first commit
// failure is returned, but every device is still committed.
func (s *Store) CommitDevices(devices []string) error {
	var first error
	unpinned := false
	for _, dev := range devices {
		s.mu.Lock()
		l := s.logs[dev]
		s.mu.Unlock()
		if l == nil {
			continue
		}
		l.mu.Lock()
		u, err := s.commitLocked(l)
		l.mu.Unlock()
		unpinned = unpinned || u
		if err != nil && first == nil {
			first = err
		}
	}
	if unpinned {
		// One walk for the call, with no log lock held, so it can take the
		// logs just unpinned, which every walk since their pins had to skip.
		s.trim()
	}
	return first
}

// commitLocked is the commit step: it releases one pin on l and, under
// SyncAlways, fsyncs the log if it holds unsynced bytes. It reports
// whether that was l's last pin — the residency walk skips pinned logs,
// so the caller trims once l.mu is released. Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) commitLocked(l *deviceLog) (unpinned bool, err error) {
	if l.pins > 0 {
		l.pins--
		unpinned = l.pins == 0
	}
	if s.cfg.Sync != SyncAlways {
		return unpinned, nil
	}
	// A poisoned or evicted log holds no handle and nothing dirty, and a
	// handle the residency walk or Close took was synced there: syncLocked
	// has nothing to do for any of them.
	synced, err := s.syncLocked(l, "commit")
	if synced {
		s.groupSyncs.Add(1)
	}
	return unpinned, err
}

// Devices lists every device with a log on disk, sorted. Stray entries
// in the data dir — loose files, foreign or unreadable directories, and
// directories holding no log files (e.g. a crash between creating a
// device directory and its first file) — are skipped, not reported as
// devices and not errors.
func (s *Store) Devices() ([]string, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	entries, err := s.fs.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dev, err := unescapeDevice(e.Name())
		if err != nil {
			continue // not ours
		}
		seqs, _, err := s.listSeqs(filepath.Join(s.cfg.Dir, e.Name()))
		if err != nil || len(seqs) == 0 {
			continue // unreadable or empty: nothing to replay
		}
		out = append(out, dev)
	}
	sort.Strings(out)
	return out, nil
}

// residentLogs snapshots the logs for a pass that then locks each in
// turn, since s.mu nests inside a log's mu. One dropped after the
// snapshot is idle, so the pass has nothing to do for it.
func (s *Store) residentLogs() []*deviceLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	logs := make([]*deviceLog, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	return logs
}

// Sync fsyncs every log with unsynced writes. The background flusher
// calls this on the SyncInterval period.
func (s *Store) Sync() error {
	var first error
	for _, l := range s.residentLogs() {
		l.mu.Lock()
		if _, err := s.syncLocked(l, "background sync"); err != nil && first == nil {
			first = err
		}
		l.mu.Unlock()
	}
	return first
}

// runMaintenance is the store's one background goroutine: every
// SyncEvery it fsyncs dirty logs (SyncInterval policy) and runs the
// retention pass over the logs this process has touched.
func (s *Store) runMaintenance() {
	defer s.maint.Done()
	//trajlint:ignore walltime maintenance cadence is real elapsed time by design; tests drive syncs and retention directly, never through this ticker
	tick := time.NewTicker(s.cfg.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if s.cfg.Sync == SyncInterval {
				s.Sync()
			}
			if s.retentionOn() {
				s.compactKnown()
			}
		}
	}
}

// Stats returns a snapshot of the store-wide counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	resident, open := int64(s.resident.Len()), int64(s.handles.Len())
	s.mu.Unlock()
	return Stats{
		Appends:    s.appends.Load(),
		Segments:   s.segments.Load(),
		Bytes:      s.bytes.Load(),
		Syncs:      s.syncs.Load(),
		GroupSyncs: s.groupSyncs.Load(),
		Recovered:  s.recovered.Load(),

		PoisonedLogs:      s.poisonedLogs.Load(),
		QuarantineReopens: s.quarReopens.Load(),

		OpenHandles:     open,
		HandleHits:      s.handleHits.Load(),
		HandleMisses:    s.handleMisses.Load(),
		HandleEvictions: s.handleEvictions.Load(),

		ResidentLogs:  resident,
		MetaEvictions: s.metaEvictions.Load(),

		IndexWrites:   s.indexWrites.Load(),
		IndexRebuilds: s.indexRebuilds.Load(),

		ReclaimedBytes:    s.reclaimedBytes.Load(),
		DeletedFiles:      s.deletedFiles.Load(),
		PrefixTruncations: s.prefixTruncs.Load(),

		ReadBytes:      s.readBytes.Load(),
		ReadCacheHits:  s.cache.hitCount(),
		ReadCacheMiss:  s.cache.missCount(),
		ReadCacheBytes: s.cache.sizeBytes(),

		ReadCacheDeclined: s.cache.declinedCount(),
	}
}

// Close stops the flusher, syncs and closes every open log, and rejects
// further use. Close the engine writing into the store first, so its
// final flush lands. Subsequent calls return nil.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.maint.Wait()
	// closed freezes the log table: an append that passed its closed
	// check may still register a handle, but only on a log in the
	// snapshot.
	var first error
	for _, l := range s.residentLogs() {
		l.mu.Lock()
		if s.cfg.Sync != SyncNever {
			if _, err := s.syncLocked(l, "close"); err != nil && first == nil {
				first = err
			}
		}
		if err := s.dropHandle(l); err != nil && first == nil {
			first = fmt.Errorf("segstore: %w", err)
		}
		l.mu.Unlock()
	}
	return first
}
