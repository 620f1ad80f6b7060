package iofault

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
)

// Plan is a seeded fault schedule: every eligible operation draws, in a
// fixed kind order, against the per-kind rates, so the whole fault
// sequence is a pure function of Seed and the operation order.
type Plan struct {
	Seed int64
	// Rates maps each fault kind to its per-operation injection
	// probability (0 disables the kind). Kinds apply only to the
	// operations they make sense for: torn/short/bit-flip/ENOSPC on
	// writes, sync-lie on fsync, EIO everywhere.
	Rates map[Kind]float64
}

// UniformPlan gives every fault kind the same injection rate.
func UniformPlan(seed int64, rate float64) Plan {
	rates := make(map[Kind]float64, len(Kinds()))
	for _, k := range Kinds() {
		rates[k] = rate
	}
	return Plan{Seed: seed, Rates: rates}
}

// kindsFor lists the fault kinds eligible for an operation, in decision
// order (order matters for determinism).
func kindsFor(op Op) []Kind {
	switch op {
	case OpWrite:
		return []Kind{KindEIO, KindENOSPC, KindTorn, KindShort, KindBitFlip}
	case OpSync:
		return []Kind{KindEIO, KindSyncLie}
	default:
		return []Kind{KindEIO}
	}
}

// Faulty wraps a backing FS (normally the real filesystem rooted in a
// test directory) with plan-driven fault injection and a durability
// model precise enough to simulate power loss: file content becomes
// durable only at an honest Sync, and directory entries (creates,
// renames, removes) become durable only at SyncDir. Crash rewinds the
// backing directory to the durable state, optionally leaving a torn
// tail of not-yet-durable bytes, exactly as a power cut could.
type Faulty struct {
	mu   sync.Mutex
	fs   FS
	rng  *rand.Rand
	plan Plan

	// synced is the per-path content known fsync'd (content durability);
	// membership tracks every live path the model has seen.
	synced map[string][]byte
	// durable is the post-crash image: paths whose directory entries are
	// durable, with their durable content.
	durable map[string][]byte
	// gen invalidates file handles across Crash: a handle opened before a
	// crash belongs to a dead process and must not touch the rebuilt
	// filesystem.
	gen int

	counts map[Kind]int
}

// NewFaulty wraps backing with the plan's fault injection. Files the
// model has never seen are adopted as durable on first touch, so a
// pre-populated directory behaves like state that survived an earlier
// clean shutdown.
func NewFaulty(backing FS, plan Plan) *Faulty {
	return &Faulty{
		fs:      backing,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		plan:    plan,
		synced:  make(map[string][]byte),
		durable: make(map[string][]byte),
		counts:  make(map[Kind]int),
	}
}

// Injected reports how many faults of each kind the plan has fired so
// far — torture tests assert the plan actually exercised its kinds.
func (fa *Faulty) Injected() map[Kind]int {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	out := make(map[Kind]int, len(fa.counts))
	for k, n := range fa.counts {
		out[k] = n
	}
	return out
}

// decide draws the plan for one operation. Caller holds fa.mu.
func (fa *Faulty) decide(op Op) Kind {
	for _, k := range kindsFor(op) {
		rate := fa.plan.Rates[k]
		if rate > 0 && fa.rng.Float64() < rate {
			fa.counts[k]++
			return k
		}
	}
	return 0
}

func (fa *Faulty) inject(op Op, kind Kind, path string) error {
	return &Error{Op: op, Kind: kind, Path: path, Err: kind.errno()}
}

// adopt registers a path the model has never seen. An existing file is
// assumed to predate the Faulty wrapper and therefore to be durable.
// Caller holds fa.mu.
func (fa *Faulty) adopt(path string) {
	if _, ok := fa.synced[path]; ok {
		return
	}
	data, err := fa.fs.ReadFile(path)
	if err != nil {
		return // does not exist (or unreadable): nothing to adopt
	}
	fa.synced[path] = append([]byte(nil), data...)
	fa.durable[path] = append([]byte(nil), data...)
}

func (fa *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = filepath.Clean(name)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.adopt(name)
	_, known := fa.synced[name]
	op := OpWrite
	if !known && flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if kind := fa.decide(op); kind != 0 {
		return nil, fa.inject(op, kind, name)
	}
	f, err := fa.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if !known {
		// Newly created: live but with no synced content and no durable
		// directory entry until Sync/SyncDir.
		fa.synced[name] = nil
	} else if flag&os.O_TRUNC != 0 {
		// Truncation discards the synced content; the durable image keeps
		// the old bytes until the next honest Sync.
		fa.synced[name] = nil
	}
	return &faultyFile{fa: fa, f: f, name: name, gen: fa.gen}, nil
}

func (fa *Faulty) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.adopt(name)
	if _, err := fa.fs.Stat(name); errors.Is(err, fs.ErrNotExist) {
		// A missing file fails at open, before any I/O a fault could hit.
		return nil, err
	}
	if kind := fa.decide(OpRead); kind != 0 {
		return nil, fa.inject(OpRead, kind, name)
	}
	return fa.fs.ReadFile(name)
}

func (fa *Faulty) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if kind := fa.decide(OpRename); kind != 0 {
		return fa.inject(OpRename, kind, oldpath)
	}
	if err := fa.fs.Rename(oldpath, newpath); err != nil {
		return err
	}
	// The new link carries the synced content; the durable image still
	// shows the pre-rename layout until SyncDir commits the entries.
	fa.synced[newpath] = fa.synced[oldpath]
	delete(fa.synced, oldpath)
	return nil
}

func (fa *Faulty) Remove(name string) error {
	name = filepath.Clean(name)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if kind := fa.decide(OpRemove); kind != 0 {
		return fa.inject(OpRemove, kind, name)
	}
	if err := fa.fs.Remove(name); err != nil {
		return err
	}
	delete(fa.synced, name)
	return nil
}

func (fa *Faulty) Truncate(name string, size int64) error {
	name = filepath.Clean(name)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.adopt(name)
	if kind := fa.decide(OpTruncate); kind != 0 {
		return fa.inject(OpTruncate, kind, name)
	}
	if err := fa.fs.Truncate(name, size); err != nil {
		return err
	}
	fa.clampSynced(name, size)
	return nil
}

// clampSynced trims the synced-content model after a truncation: the
// surviving prefix is still synced, anything past it is not.
// Caller holds fa.mu.
func (fa *Faulty) clampSynced(name string, size int64) {
	if s, ok := fa.synced[name]; ok && int64(len(s)) > size {
		fa.synced[name] = s[:size]
	}
}

func (fa *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return fa.fs.MkdirAll(path, perm)
}

func (fa *Faulty) Stat(name string) (fs.FileInfo, error) {
	return fa.fs.Stat(name)
}

// SyncDir commits the directory's entries: every live path directly in
// dir becomes durable with its synced content, and durable entries that
// were removed or renamed away are dropped from the post-crash image.
func (fa *Faulty) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if kind := fa.decide(OpSyncDir); kind != 0 {
		return fa.inject(OpSyncDir, kind, dir)
	}
	if err := fa.fs.SyncDir(dir); err != nil {
		return err
	}
	for path, content := range fa.synced {
		if filepath.Dir(path) == dir {
			fa.durable[path] = append([]byte(nil), content...)
		}
	}
	for path := range fa.durable {
		if filepath.Dir(path) != dir {
			continue
		}
		if _, live := fa.synced[path]; !live {
			delete(fa.durable, path)
		}
	}
	return nil
}

// Crash simulates power loss: the backing directory is rewound to the
// durable image — files without durable directory entries vanish,
// durable files revert to their durable content plus (sometimes) a torn
// prefix of their not-yet-durable tail — and every open handle goes
// stale. The rewound state is durable by construction.
func (fa *Faulty) Crash() error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.gen++
	for path := range fa.synced {
		if _, ok := fa.durable[path]; !ok {
			if err := fa.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	for path, content := range fa.durable {
		rebuilt := append([]byte(nil), content...)
		// A crash can leave any prefix of the unsynced tail on disk: keep
		// a random one so recovery sees realistic torn garbage.
		if current, err := fa.fs.ReadFile(path); err == nil &&
			len(current) > len(rebuilt) && bytes.HasPrefix(current, rebuilt) {
			tail := current[len(rebuilt):]
			rebuilt = append(rebuilt, tail[:fa.rng.Intn(len(tail)+1)]...)
		}
		if err := fa.rewrite(path, rebuilt); err != nil {
			return err
		}
		fa.synced[path] = append([]byte(nil), rebuilt...)
		fa.durable[path] = rebuilt
	}
	for path := range fa.synced {
		if _, ok := fa.durable[path]; !ok {
			delete(fa.synced, path)
		}
	}
	return nil
}

// rewrite replaces path's content on the backing FS, bypassing fault
// injection (Crash is the simulator's own act, not an injected fault).
func (fa *Faulty) rewrite(path string, content []byte) error {
	if err := fa.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f, err := fa.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(content)
	serr := f.Sync()
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// faultyFile is one open handle under fault injection.
type faultyFile struct {
	fa   *Faulty
	f    File
	name string
	gen  int
}

func (ff *faultyFile) Name() string { return ff.name }

func (ff *faultyFile) stale() bool { return ff.gen != ff.fa.gen }

func (ff *faultyFile) Write(p []byte) (int, error) {
	fa := ff.fa
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if ff.stale() {
		return 0, ErrStaleHandle
	}
	kind := fa.decide(OpWrite)
	switch kind {
	case 0:
		return ff.f.Write(p)
	case KindEIO, KindENOSPC:
		return 0, fa.inject(OpWrite, kind, ff.name)
	case KindTorn, KindShort:
		n := 0
		if len(p) > 0 {
			n = fa.rng.Intn(len(p))
		}
		if _, err := ff.f.Write(p[:n]); err != nil {
			return 0, err
		}
		return n, fa.inject(OpWrite, kind, ff.name)
	case KindBitFlip:
		flipped := append([]byte(nil), p...)
		if len(flipped) > 0 {
			i := fa.rng.Intn(len(flipped))
			flipped[i] ^= 1 << uint(fa.rng.Intn(8))
		}
		n, err := ff.f.Write(flipped)
		return n, err // silent: success with corrupted bytes on disk
	default:
		return 0, fa.inject(OpWrite, kind, ff.name)
	}
}

func (ff *faultyFile) Sync() error {
	fa := ff.fa
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if ff.stale() {
		return ErrStaleHandle
	}
	switch kind := fa.decide(OpSync); kind {
	case 0:
	case KindSyncLie:
		return nil // report success; durability does not advance
	default:
		return fa.inject(OpSync, kind, ff.name)
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	data, err := fa.fs.ReadFile(ff.name)
	if err != nil {
		return err
	}
	fa.synced[ff.name] = data
	// Content durability: if the directory entry is already durable the
	// synced bytes survive a crash immediately.
	if _, ok := fa.durable[ff.name]; ok {
		fa.durable[ff.name] = append([]byte(nil), data...)
	}
	return nil
}

func (ff *faultyFile) Truncate(size int64) error {
	fa := ff.fa
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if ff.stale() {
		return ErrStaleHandle
	}
	if kind := fa.decide(OpTruncate); kind != 0 {
		return fa.inject(OpTruncate, kind, ff.name)
	}
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	fa.clampSynced(ff.name, size)
	return nil
}

func (ff *faultyFile) Close() error {
	fa := ff.fa
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if ff.stale() {
		// The real descriptor still needs releasing, but the dead
		// process's close has no durability effect.
		_ = ff.f.Close()
		return ErrStaleHandle
	}
	return ff.f.Close()
}
