// Package resultcache is an on-disk content-addressed store for the
// study pipeline's expensive unit outputs: reference AVEP/INIP(T)
// snapshot sets, training-run snapshots and comparison summaries.
//
// Entries are keyed by a canonical fingerprint of everything that
// determines a unit's result — the guest image's content hash, the
// input tape's identity, the translator configuration's engine
// fingerprint, the effective threshold, the study context (scale) and
// a cache schema version. Whatever is not provably part of that
// closure (fault-injected runs, targets without a declared tape
// identity) must simply not be cached; the store never guesses.
//
// Each entry is one file, <hash>.json, holding a one-line JSON header
// — {"schema","key","sum"} — followed by the value encoded with
// encoding/gob. The header stays text so `head -1 <entry>` shows what
// an entry is; the value is binary because decoding profile snapshots
// from JSON scans every byte as text before reflection even starts.
// gob writes map entries in iteration order, so entry bytes are not
// reproducible across writes of the same value; nothing compares them.
// gob also omits zero fields and decodes an empty slice as nil (an
// empty map stays non-nil), so callers whose values distinguish empty
// from nil slices restore that shape after a hit.
//
// The on-disk format is defensive in both directions:
//
//   - writes go through internal/atomicio, so a crash mid-store leaves
//     either the old entry or the new one, never a torn file;
//   - reads validate the header — schema version, the full key
//     fingerprint (not just its hash) and a checksum over the value
//     bytes — before decoding, so truncated, bit-flipped or
//     stale-schema entries are treated as misses (re-execute,
//     rewrite), never as data.
//
// All methods are safe for concurrent use and safe on a nil *Store
// (caching off), so call sites need no guards.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/atomicio"
)

// SchemaVersion is bumped whenever the serialized shape — or the
// meaning — of any cached value changes. A version mismatch is a miss:
// the entry is ignored and rewritten by the re-executed unit, never
// reinterpreted.
//
// v2: RunStats.CacheLookups semantics changed (the indirect-target
// table resolves jr/ret successors without a code-cache probe), so v1
// entries' stats would fail -cacheverify against a fresh run.
//
// v3: the value after the header line is gob instead of JSON (and the
// header no longer wraps it), so a v2 file fails the schema check.
const SchemaVersion = 3

// Key identifies one cached unit output. Every field participates in
// the canonical fingerprint; the zero value is not a usable key (Lookup
// and Put reject keys without a kind or image hash).
type Key struct {
	// Kind is the unit flavour: "ref" (shared-trace reference bundle),
	// "run" (one profiled execution), "cmp" (one INIP(T)-vs-AVEP
	// comparison), "traincmp" (the training comparison pair), "bp"
	// (dynamic-predictor tallies over the reference trace), "sp" (one
	// sampled-profiling ladder).
	Kind string
	// Bench is the benchmark name — informational for humans listing
	// the store, but also part of the fingerprint so two benchmarks
	// that happen to share code and tape never alias.
	Bench string
	// Context carries study-level parameters that are not visible in
	// the image or config (the study puts "scale=<v>" here).
	Context string
	// Image is the guest image content hash (guest.Image.ContentHash);
	// for pair entries the two hashes joined with "+".
	Image string
	// Tape is the deterministic input-tape identity (core.Target.TapeID);
	// for pair entries the two identities joined with "+".
	Tape string
	// Engine is the translator configuration fingerprint
	// (dbt.Config.Fingerprint); for multi-run entries the fingerprints
	// joined with "|".
	Engine string
	// T is the effective retranslation threshold for per-threshold
	// entries, 0 elsewhere.
	T uint64
}

// Fingerprint renders the key canonically. The rendering — not the
// caller's memory of what it meant — is what Lookup validates against
// the envelope, so two builds only ever share an entry when they agree
// on every component.
func (k Key) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|kind=%s|bench=%s|ctx=%s|img=%s|tape=%s|t=%d|engine=%s",
		SchemaVersion, k.Kind, k.Bench, k.Context, k.Image, k.Tape, k.T, k.Engine)
	return b.String()
}

// Hash returns the content address of the key: the hex SHA-256 of its
// fingerprint, which names the entry file.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

func (k Key) valid() bool { return k.Kind != "" && k.Image != "" }

// Counters is a snapshot of the store's accounting.
type Counters struct {
	// Hits counts lookups that returned a validated entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found nothing usable (including the
	// corrupt entries counted separately in Errors).
	Misses uint64 `json:"misses"`
	// Stores counts successful entry writes.
	Stores uint64 `json:"stores"`
	// Errors counts entries rejected on read (truncated, checksum or
	// fingerprint mismatch, stale schema) plus failed writes. Every
	// read-side error is also a miss.
	Errors uint64 `json:"errors"`
	// HealFailures counts store/heal writes that could not land because
	// the cache directory is unwritable (read-only filesystem, removed
	// directory, permissions). The first failure is surfaced as an
	// error and demotes the store to read-only mode; every later write
	// is a counted no-op here rather than a fresh error per lookup.
	HealFailures uint64 `json:"heal_failures"`
}

// Store is an on-disk result cache rooted at one directory.
type Store struct {
	dir string

	hits      atomic.Uint64
	misses    atomic.Uint64
	stores    atomic.Uint64
	errs      atomic.Uint64
	healFails atomic.Uint64
	// readOnly latches after the first failed entry write: an
	// unwritable cache directory (read-only mount, swept-away dir)
	// does not heal itself, so retrying — and erroring — on every
	// subsequent lookup's rewrite would drown the run in noise. Reads
	// keep working; writes become counted no-ops.
	readOnly atomic.Bool
}

// Open returns a store rooted at dir, creating the directory if
// needed. Stale atomic-write temporaries from a previous process
// killed mid-store are swept here — the one moment no write of this
// process can be in flight.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	// Best-effort: a read-only pre-populated store is still usable.
	atomicio.SweepTemps(dir)
	return &Store{dir: dir}, nil
}

// ReadOnly reports whether the store has demoted itself to read-only
// mode after a failed write. Safe on nil (false).
func (s *Store) ReadOnly() bool {
	return s != nil && s.readOnly.Load()
}

// Dir returns the store's root directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Counters returns a snapshot of the store's accounting. Safe on nil
// (all zero).
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Stores:       s.stores.Load(),
		Errors:       s.errs.Load(),
		HealFailures: s.healFails.Load(),
	}
}

// header is the first line of every entry file: everything Lookup
// needs to decide whether the value bytes that follow are trustworthy
// before decoding them.
type header struct {
	// Schema is the cache schema version the entry was written under.
	Schema int `json:"schema"`
	// Key is the full canonical fingerprint — stored verbatim so a
	// hash collision (or a mangled filename) can never serve a value
	// for the wrong key.
	Key string `json:"key"`
	// Sum is the hex SHA-256 over the exact gob value bytes after the
	// header line.
	Sum string `json:"sum"`
}

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.Hash()+".json") }

// Lookup loads the entry for k into v (a gob-decodable pointer) and
// reports whether a validated entry was found. Anything wrong with the
// stored entry — unreadable, truncated, checksum or key mismatch,
// stale schema, undecodable value — is a miss (counted in Errors as
// well): the caller re-executes and rewrites. Lookup is safe on a nil
// store (always a miss, not counted).
func (s *Store) Lookup(k Key, v any) bool {
	if s == nil {
		return false
	}
	if !k.valid() {
		s.misses.Add(1)
		return false
	}
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		// A missing entry is the ordinary cold-cache miss; any other
		// read failure is an error worth counting.
		if !os.IsNotExist(err) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	if err := decodeEntry(data, k, v); err != nil {
		s.errs.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// decodeEntry validates the header and decodes the value. Every
// failure mode collapses to an error — the caller treats them all as
// a miss — but the checks are ordered so the cheapest guards run
// first, and v is only assigned once the whole value has decoded.
func decodeEntry(data []byte, k Key, v any) error {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("resultcache: entry %s: no header line", k.Hash())
	}
	var h header
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return fmt.Errorf("resultcache: entry %s: header: %w", k.Hash(), err)
	}
	if h.Schema != SchemaVersion {
		return fmt.Errorf("resultcache: entry %s: schema %d, want %d", k.Hash(), h.Schema, SchemaVersion)
	}
	if h.Key != k.Fingerprint() {
		return fmt.Errorf("resultcache: entry %s: key fingerprint mismatch", k.Hash())
	}
	value := data[nl+1:]
	sum := sha256.Sum256(value)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return fmt.Errorf("resultcache: entry %s: value checksum mismatch", k.Hash())
	}
	dst := reflect.ValueOf(v)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return fmt.Errorf("resultcache: entry %s: decode into non-pointer %T", k.Hash(), v)
	}
	fresh := reflect.New(dst.Elem().Type())
	r := bytes.NewReader(value)
	if err := gob.NewDecoder(r).DecodeValue(fresh); err != nil {
		return fmt.Errorf("resultcache: entry %s: value: %w", k.Hash(), err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("resultcache: entry %s: %d trailing value bytes", k.Hash(), r.Len())
	}
	dst.Elem().Set(fresh.Elem())
	return nil
}

// Put stores v under k, atomically replacing any previous entry. A
// failed write is counted and reported but must not fail the unit that
// produced v — the result is correct either way, only its reuse is
// lost. The first write that fails to land on disk demotes the store
// to read-only mode: it is surfaced (and counted in Errors) exactly
// once, and every later write — including the per-lookup heals of
// corrupt entries — becomes a silent no-op counted in HealFailures.
// Safe on a nil store (no-op).
func (s *Store) Put(k Key, v any) error {
	if s == nil {
		return nil
	}
	if !k.valid() {
		s.errs.Add(1)
		return fmt.Errorf("resultcache: refusing to store under incomplete key %+v", k)
	}
	if s.readOnly.Load() {
		s.healFails.Add(1)
		return nil
	}
	var value bytes.Buffer
	if err := gob.NewEncoder(&value).Encode(v); err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultcache: encode %s: %w", k.Hash(), err)
	}
	sum := sha256.Sum256(value.Bytes())
	data, err := json.Marshal(header{
		Schema: SchemaVersion,
		Key:    k.Fingerprint(),
		Sum:    hex.EncodeToString(sum[:]),
	})
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultcache: encode %s: %w", k.Hash(), err)
	}
	data = append(append(data, '\n'), value.Bytes()...)
	if err := atomicio.WriteFile(s.path(k), data, 0o644); err != nil {
		s.healFails.Add(1)
		if s.readOnly.CompareAndSwap(false, true) {
			// First failure wins the race to report; latecomers that
			// slipped past the gate above are demoted like the rest.
			s.errs.Add(1)
			return fmt.Errorf("resultcache: store %s (cache now read-only): %w", k.Hash(), err)
		}
		return nil
	}
	s.stores.Add(1)
	return nil
}

// Len reports how many entries the store currently holds on disk
// (directory scan; used by tests and the CLI summary).
func (s *Store) Len() (int, error) {
	if s == nil {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("resultcache: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
