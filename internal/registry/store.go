package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/observe"
)

// Options configures Open.
type Options struct {
	// Metrics, when set, receives the autodetect_registry_* families.
	Metrics *observe.Registry
	// Logf, when set, receives one line per store event (nil discards).
	Logf func(format string, args ...any)

	// now is the injectable clock for publish timestamps (tests).
	now func() time.Time
}

// Store is the durable versioned model store. All methods are safe for
// concurrent use; Publish and Pin serialize on one mutex, Get copies the
// version record under the lock and reads the model file outside it.
type Store struct {
	dir  string
	met  *metrics
	logf func(format string, args ...any)
	now  func() time.Time

	mu  sync.Mutex
	man manifestState
}

// Open opens (creating if needed) the registry under dir, replaying the
// durability protocol:
//
//   - the manifest is read if intact; a torn or missing manifest is
//     rebuilt from the version directories (each is self-describing)
//   - every version directory is re-verified: meta.bin must decode and
//     v<N>/model.bin must hash to the recorded SHA-256
//   - versions that fail re-verification are quarantined (moved under
//     quarantine/, dropped from the manifest, never served)
//   - version directories without any meta.bin are crash debris from an
//     unacknowledged publish and are removed
//   - a complete version directory missing from the manifest (crash
//     between meta.bin and the manifest write) is adopted — a publish is
//     durable the moment its meta.bin lands
//
// The current pointer survives when its version does; otherwise it falls
// back to the newest intact version and the pin is released.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("registry: directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	s := &Store{
		dir:  dir,
		met:  newMetrics(opts.Metrics),
		logf: opts.Logf,
		now:  opts.now,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.now == nil {
		s.now = time.Now
	}
	if err := s.rescan(); err != nil {
		return nil, err
	}
	s.registerGauges(opts.Metrics)
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string    { return filepath.Join(s.dir, manifestName) }
func (s *Store) versionDir(n int) string { return filepath.Join(s.dir, fmt.Sprintf("v%d", n)) }
func (s *Store) modelPath(n int) string  { return filepath.Join(s.versionDir(n), modelName) }
func (s *Store) metaPath(n int) string   { return filepath.Join(s.versionDir(n), metaName) }
func (s *Store) quarantinePath() string  { return filepath.Join(s.dir, quarantineName) }

// rescan rebuilds the in-memory manifest from disk at Open time.
func (s *Store) rescan() error {
	loaded, manifestIntact := s.loadManifest()

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("registry: scanning %s: %w", s.dir, err)
	}
	inLoaded := make(map[int]bool, len(loaded.Versions))
	for _, v := range loaded.Versions {
		inLoaded[v.Version] = true
	}

	var versions []VersionInfo
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n, ok := parseVersionDir(e.Name())
		if !ok {
			continue
		}
		info, verr := s.verifyVersion(n)
		if verr == nil {
			versions = append(versions, info)
			continue
		}
		if errors.Is(verr, os.ErrNotExist) && !inLoaded[n] {
			// No meta.bin and never acknowledged: debris from a crash
			// mid-publish. Remove it so no partial version is visible.
			s.logf("registry: removing incomplete version directory %s (%v)", e.Name(), verr)
			if err := os.RemoveAll(s.versionDir(n)); err != nil {
				return fmt.Errorf("registry: removing incomplete v%d: %w", n, err)
			}
			continue
		}
		// Acknowledged (or ambiguous) but no longer verifiable: quarantine.
		if err := s.quarantineDir(n, verr); err != nil {
			return err
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i].Version < versions[j].Version })

	man := manifestState{Versions: versions}
	if manifestIntact && versionPresent(versions, loaded.Current) {
		man.Current, man.Pinned = loaded.Current, loaded.Pinned
	} else if len(versions) > 0 {
		man.Current = versions[len(versions)-1].Version
	}

	s.mu.Lock()
	s.man = man
	changed := !manifestIntact || !manifestEqual(loaded, man)
	var werr error
	if changed && (len(man.Versions) > 0 || manifestIntact) {
		werr = s.writeManifestLocked()
	}
	s.syncGaugesLocked()
	s.mu.Unlock()
	if werr != nil {
		return werr
	}
	if !manifestIntact && len(man.Versions) > 0 {
		s.logf("registry: manifest rebuilt from %d version directories, current v%d",
			len(man.Versions), man.Current)
	}
	return nil
}

// loadManifest reads manifest.bin; a missing, torn, or undecodable file
// reports intact=false so rescan rebuilds from the version directories.
func (s *Store) loadManifest() (manifestState, bool) {
	var man manifestState
	f, err := os.Open(s.manifestPath())
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.logf("registry: manifest unreadable, rebuilding: %v", err)
		}
		return man, false
	}
	defer f.Close()
	if err := envelope.ReadJSON(f, magicManifest, maxManifestBytes, &man); err != nil {
		s.logf("registry: manifest failed integrity check, rebuilding from version directories: %v", err)
		return manifestState{}, false
	}
	return man, true
}

// verifyVersion re-verifies one version directory end to end: meta.bin
// decodes, the version number matches, model.bin exists, and its bytes
// hash to the recorded digest. os.ErrNotExist (missing meta) means the
// publish was never acknowledged.
func (s *Store) verifyVersion(n int) (VersionInfo, error) {
	var info VersionInfo
	f, err := os.Open(s.metaPath(n))
	if err != nil {
		return info, err
	}
	derr := envelope.ReadJSON(f, magicMeta, maxMetaBytes, &info)
	f.Close()
	if derr != nil {
		return info, fmt.Errorf("meta: %w", derr)
	}
	if info.Version != n {
		return info, fmt.Errorf("meta records version %d in directory v%d", info.Version, n)
	}
	raw, err := os.ReadFile(s.modelPath(n))
	if err != nil {
		return info, fmt.Errorf("model: %w", err)
	}
	if int64(len(raw)) != info.Bytes {
		return info, fmt.Errorf("model is %d bytes, meta records %d", len(raw), info.Bytes)
	}
	if sum := shaHex(raw); sum != info.SHA256 {
		return info, fmt.Errorf("model digest %s does not match recorded %s", sum, info.SHA256)
	}
	return info, nil
}

// quarantineDir moves a failed version directory under quarantine/ so it
// can never be served but stays available for forensics.
func (s *Store) quarantineDir(n int, cause error) error {
	if err := os.MkdirAll(s.quarantinePath(), 0o755); err != nil {
		return fmt.Errorf("registry: creating quarantine directory: %w", err)
	}
	dst := filepath.Join(s.quarantinePath(), fmt.Sprintf("v%d", n))
	for i := 2; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.quarantinePath(), fmt.Sprintf("v%d-%d", n, i))
	}
	if err := os.Rename(s.versionDir(n), dst); err != nil {
		return fmt.Errorf("registry: quarantining v%d: %w", n, err)
	}
	s.met.quarantined.Inc()
	s.logf("registry: quarantined v%d → %s: %v", n, dst, cause)
	return nil
}

// Publish stores raw as a new version, unless it is already there. The
// idempotency ladder mirrors the distbuild shard upload:
//
//	invalid model bytes                       → ErrInvalidModel
//	byte-identical to an existing version     → that version, duplicate=true
//	same fingerprint, different bytes         → ErrConflict
//	otherwise                                 → next version, persisted
//
// Persistence order is model.bin → meta.bin → manifest, each atomic, so a
// crash leaves either nothing visible or a complete, adoptable version.
// The current pointer advances to the new version unless pinned.
//
// traceparent, when non-empty, is the producer's W3C span context; it is
// persisted with the version and echoed to pullers so downstream hot-swap
// spans join the producing build's trace. "" publishes untraced.
func (s *Store) Publish(raw []byte, fingerprint, source, traceparent string) (VersionInfo, bool, error) {
	if int64(len(raw)) > maxModelBytes {
		return VersionInfo{}, false, fmt.Errorf("%w: %d bytes exceeds cap %d", ErrInvalidModel, len(raw), maxModelBytes)
	}
	det, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return VersionInfo{}, false, fmt.Errorf("%w: %v", ErrInvalidModel, err)
	}
	sum := shaHex(raw)

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.man.Versions {
		if v.SHA256 == sum {
			s.met.duplicates.Inc()
			s.logf("registry: publish of v%d acknowledged as duplicate (sha %s)", v.Version, sum[:12])
			return v, true, nil
		}
	}
	if fingerprint != "" {
		for _, v := range s.man.Versions {
			if v.Fingerprint == fingerprint {
				return VersionInfo{}, false, fmt.Errorf("%w: fingerprint %q already stored as v%d with sha %s",
					ErrConflict, fingerprint, v.Version, v.SHA256[:12])
			}
		}
	}

	n := 1
	if len(s.man.Versions) > 0 {
		n = s.man.Versions[len(s.man.Versions)-1].Version + 1
	}
	info := VersionInfo{
		Version:         n,
		SHA256:          sum,
		Bytes:           int64(len(raw)),
		Fingerprint:     fingerprint,
		Languages:       len(det.Languages()),
		Source:          source,
		PublishedUnixMs: s.now().UnixMilli(),
		Traceparent:     traceparent,
	}
	if err := os.MkdirAll(s.versionDir(n), 0o755); err != nil {
		return VersionInfo{}, false, fmt.Errorf("registry: %w", err)
	}
	if err := atomicio.WriteFile(s.modelPath(n), raw, 0o644); err != nil {
		return VersionInfo{}, false, fmt.Errorf("registry: persisting v%d model: %w", n, err)
	}
	if err := atomicio.WriteTo(s.metaPath(n), 0o644, func(w io.Writer) error {
		return envelope.WriteJSON(w, magicMeta, info)
	}); err != nil {
		return VersionInfo{}, false, fmt.Errorf("registry: persisting v%d meta: %w", n, err)
	}
	s.man.Versions = append(s.man.Versions, info)
	if !s.man.Pinned {
		s.man.Current = n
	}
	if err := s.writeManifestLocked(); err != nil {
		// The version directory is complete and will be adopted on the
		// next Open; surface the error so the producer retries and gets a
		// duplicate acknowledgement.
		return VersionInfo{}, false, err
	}
	s.met.publishes.Inc()
	s.syncGaugesLocked()
	s.logf("registry: published v%d (%d bytes, %d languages, sha %s, source %q, current v%d)",
		n, info.Bytes, info.Languages, sum[:12], source, s.man.Current)
	return info, false, nil
}

// List snapshots the version history and the current pointer.
func (s *Store) List() (current int, pinned bool, versions []VersionInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions = make([]VersionInfo, len(s.man.Versions))
	copy(versions, s.man.Versions)
	return s.man.Current, s.man.Pinned, versions
}

// Current reports the pinned version's record, or ok=false before the
// first publish.
func (s *Store) Current() (VersionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findLocked(s.man.Current)
}

// Info reports one version's record without touching its model file —
// the cheap path behind conditional polls.
func (s *Store) Info(version int) (VersionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findLocked(version)
}

func (s *Store) findLocked(version int) (VersionInfo, bool) {
	for _, v := range s.man.Versions {
		if v.Version == version {
			return v, true
		}
	}
	return VersionInfo{}, false
}

// Get returns one version's record and model bytes, re-verifying the
// digest on the way out. A version whose bytes no longer hash to the
// recorded digest is quarantined and reported as ErrCorrupt — corruption
// is never served.
func (s *Store) Get(version int) (VersionInfo, []byte, error) {
	s.mu.Lock()
	info, ok := s.findLocked(version)
	s.mu.Unlock()
	if !ok {
		return VersionInfo{}, nil, fmt.Errorf("%w: v%d", ErrNotFound, version)
	}
	raw, err := os.ReadFile(s.modelPath(version))
	if err == nil && int64(len(raw)) == info.Bytes && shaHex(raw) == info.SHA256 {
		return info, raw, nil
	}
	if err == nil {
		err = errors.New("digest mismatch")
	}
	if qerr := s.dropAndQuarantine(version, err); qerr != nil {
		return VersionInfo{}, nil, qerr
	}
	return VersionInfo{}, nil, fmt.Errorf("%w: v%d: %v", ErrCorrupt, version, err)
}

// Pin moves the current pointer. version > 0 pins current there after
// re-verifying the stored digest (a corrupt target is quarantined and the
// pin refused); version == 0 unpins and snaps current to the newest
// version. Moving current to an older version reports rollback=true.
func (s *Store) Pin(version int) (VersionInfo, bool, error) {
	if version > 0 {
		// Digest verification outside the lock; Get quarantines on failure.
		if _, _, err := s.Get(version); err != nil {
			return VersionInfo{}, false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.man.Current
	var info VersionInfo
	if version > 0 {
		var ok bool
		if info, ok = s.findLocked(version); !ok {
			// Quarantined between the Get above and here.
			return VersionInfo{}, false, fmt.Errorf("%w: v%d", ErrNotFound, version)
		}
		s.man.Current, s.man.Pinned = version, true
	} else {
		if len(s.man.Versions) == 0 {
			return VersionInfo{}, false, fmt.Errorf("%w: registry is empty", ErrNotFound)
		}
		info = s.man.Versions[len(s.man.Versions)-1]
		s.man.Current, s.man.Pinned = info.Version, false
	}
	if err := s.writeManifestLocked(); err != nil {
		s.man.Current = prev
		return VersionInfo{}, false, err
	}
	rollback := info.Version < prev
	s.met.pins.Inc()
	if rollback {
		s.met.rollbacks.Inc()
	}
	s.syncGaugesLocked()
	s.logf("registry: current pinned to v%d (was v%d, pinned=%t, rollback=%t)",
		info.Version, prev, s.man.Pinned, rollback)
	return info, rollback, nil
}

// dropAndQuarantine removes a corrupt version from the manifest and moves
// its directory aside, falling the current pointer back when it pointed at
// the casualty.
func (s *Store) dropAndQuarantine(version int, cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.findLocked(version); !ok {
		return nil // lost a race with another quarantine
	}
	kept := s.man.Versions[:0]
	for _, v := range s.man.Versions {
		if v.Version != version {
			kept = append(kept, v)
		}
	}
	s.man.Versions = kept
	if s.man.Current == version {
		s.man.Current, s.man.Pinned = 0, false
		if len(kept) > 0 {
			s.man.Current = kept[len(kept)-1].Version
		}
		s.logf("registry: current fell back to v%d after quarantining v%d", s.man.Current, version)
	}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	if err := s.quarantineDir(version, cause); err != nil {
		return err
	}
	s.syncGaugesLocked()
	return nil
}

// writeManifestLocked durably rewrites manifest.bin; call with s.mu held.
func (s *Store) writeManifestLocked() error {
	if err := atomicio.WriteTo(s.manifestPath(), 0o644, func(w io.Writer) error {
		return envelope.WriteJSON(w, magicManifest, s.man)
	}); err != nil {
		return fmt.Errorf("registry: writing manifest: %w", err)
	}
	return nil
}

func (s *Store) syncGaugesLocked() {
	s.met.versions.Set(float64(len(s.man.Versions)))
	s.met.currentVersion.Set(float64(s.man.Current))
}

// registerGauges exposes live store state on the registry's /metrics.
func (s *Store) registerGauges(r *observe.Registry) {
	r.GaugeFunc("autodetect_registry_pinned",
		"1 when the current pointer is pinned (publishes stop advancing it).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.man.Pinned {
				return 1
			}
			return 0
		})
}

func parseVersionDir(name string) (int, bool) {
	if !strings.HasPrefix(name, "v") {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

func versionPresent(versions []VersionInfo, n int) bool {
	for _, v := range versions {
		if v.Version == n {
			return true
		}
	}
	return false
}

func manifestEqual(a, b manifestState) bool {
	if a.Current != b.Current || a.Pinned != b.Pinned || len(a.Versions) != len(b.Versions) {
		return false
	}
	for i := range a.Versions {
		if a.Versions[i] != b.Versions[i] {
			return false
		}
	}
	return true
}

func shaHex(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// isSHA256Hex reports whether s has the form shaHex produces: 64
// lowercase hex digits.
func isSHA256Hex(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}
