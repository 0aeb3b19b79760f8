// Package registry is the versioned model store and distribution layer
// between model producers (the distbuild coordinator, `autodetect train`)
// and the serving fleet: stateless autodetectd replicas pull the pinned
// model version from one durable source of truth instead of each carrying
// its own model file.
//
// Storage layout under the registry directory:
//
//	manifest.bin        version history + the pinned "current" pointer
//	v<N>/model.bin      the published model bytes, verbatim (model v2
//	                    envelope, so the file is independently verifiable)
//	v<N>/meta.bin       per-version metadata (digest, fingerprint, size)
//	quarantine/v<N>     versions that failed digest re-verification
//
// Every file is written through atomicio (temp + fsync + rename) and
// wrapped in the shared CRC64 envelope. The manifest is a cache: each
// version directory is self-describing through its meta.bin, so a torn
// manifest is rebuilt from a directory rescan and a publish is durable the
// moment its meta.bin lands. Restart re-verifies every stored version's
// SHA-256 digest; corrupt versions are quarantined — moved aside, dropped
// from the manifest, never served.
//
// The distribution protocol is HTTP (see Server):
//
//	POST /registry/v1/models            idempotent publish (dup → 200,
//	                                    divergent bytes at one build
//	                                    fingerprint → 409)
//	GET  /registry/v1/models            version list + current pointer
//	GET  /registry/v1/models/{version}  fetch bytes; "current" resolves the
//	                                    pin; If-None-Match → 304 no-body
//	POST /registry/v1/pin               pin/rollback the current pointer
//
// Pin state machine: publishing advances "current" to the new version
// while the registry is unpinned (the default). POST /pin with a version
// pins current there — later publishes still store new versions but stop
// advancing the pointer — and pinning to an older version than current is
// a rollback. POST /pin with {"latest": true} unpins and snaps current
// back to the newest version.
//
// Puller is the fleet side: it conditionally polls the pinned version
// (unchanged polls are 304s with no body), downloads on change under a
// retry policy, verifies the digest end to end, and hands the bytes to an
// apply hook — in autodetectd, the same atomic hot-swap path as
// /v1/admin/reload.
package registry

import (
	"errors"
)

// Endpoint paths, versioned like the distbuild protocol so a future
// revision can coexist with draining v1 pullers.
const (
	PathModels = "/registry/v1/models"
	PathPin    = "/registry/v1/pin"
)

// Response headers carried by GET /registry/v1/models/{version}. The
// digest header lets a puller verify a download end to end without
// decoding it; the version header identifies what a 304 refers to.
const (
	HeaderVersion   = "X-Registry-Version"
	HeaderSHA256    = "X-Registry-Sha256"
	HeaderPublished = "X-Registry-Published-Unix-Ms"
	HeaderSource    = "X-Registry-Source"
	// HeaderTraceparent echoes the W3C traceparent recorded at publish
	// time, so a puller can link its hot-swap span to the build trace that
	// produced the version it just downloaded.
	HeaderTraceparent = "X-Registry-Traceparent"
)

// File names and magics of the on-disk layout.
const (
	manifestName   = "manifest.bin"
	metaName       = "meta.bin"
	modelName      = "model.bin"
	quarantineName = "quarantine"
)

var (
	magicManifest = []byte("AUTODETECT-RG/1\n")
	magicMeta     = []byte("AUTODETECT-RM/1\n")
)

// Size caps for decode-time sanity: a corrupted length field must never
// drive an unbounded allocation.
const (
	maxManifestBytes = 1 << 26 // 64 MiB of version history
	maxMetaBytes     = 1 << 20 // 1 MiB per version record

	// maxModelBytes caps published and pulled model payloads (2 GiB,
	// matching the distbuild shard upload cap).
	maxModelBytes = int64(1) << 31
)

// Sentinel errors. HTTP status mapping: ErrNotFound → 404, ErrConflict →
// 409, ErrInvalidModel → 503 + Retry-After (a torn upload is
// indistinguishable from a corrupt one; the producer re-uploads), and
// ErrCorrupt → 503 + Retry-After (the version just got quarantined; the
// next poll sees the fallback pointer).
var (
	// ErrNotFound reports a version absent from the registry.
	ErrNotFound = errors.New("registry: version not found")
	// ErrConflict reports a publish whose build fingerprint matches an
	// existing version but whose bytes differ — impossible for honest
	// producers, so the registry refuses rather than guesses.
	ErrConflict = errors.New("registry: divergent bytes for an already-published build fingerprint")
	// ErrInvalidModel reports publish bytes that fail model validation
	// (envelope, bounds, decode).
	ErrInvalidModel = errors.New("registry: model failed validation")
	// ErrCorrupt reports a stored version whose bytes no longer match
	// their recorded digest; the store quarantines it as a side effect.
	ErrCorrupt = errors.New("registry: stored version corrupt, quarantined")
)

// VersionInfo describes one published model version. It is the meta.bin
// payload, the manifest's per-version record, and the JSON shape of the
// list/publish/pin responses.
type VersionInfo struct {
	// Version is the 1-based monotonic version number.
	Version int `json:"version"`
	// SHA256 is the hex digest of the stored model bytes — the version's
	// content address, its ETag, and what restart re-verification checks.
	SHA256 string `json:"sha256"`
	// Bytes is the stored model file size.
	Bytes int64 `json:"bytes"`
	// Fingerprint is the producer's build fingerprint (corpus + training
	// configuration); publish refuses divergent bytes for one fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Languages is the generalization-language count of the decoded model.
	Languages int `json:"languages"`
	// Source records who published ("distbuild", "train", "api", ...).
	Source string `json:"source,omitempty"`
	// PublishedUnixMs is the publish wall-clock time; replicas derive
	// model age from it.
	PublishedUnixMs int64 `json:"published_unix_ms"`
	// Traceparent is the W3C span context the publish request carried (the
	// coordinator's build trace, a train run's root span, ...). Persisted
	// so a replica pulling this version can record its hot-swap as a
	// descendant of the build that produced the model.
	Traceparent string `json:"traceparent,omitempty"`
}

// manifestState is the manifest.bin payload: the version history plus the
// current pointer and its pin bit. Versions are kept in ascending order.
type manifestState struct {
	Current  int           `json:"current"`
	Pinned   bool          `json:"pinned"`
	Versions []VersionInfo `json:"versions"`
}
