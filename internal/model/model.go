// Package model implements versioned, deterministic persistence for every
// trained learner in the repository — the artifact boundary between training
// (cmd/hamlet) and online serving (cmd/hamletd, internal/serve).
//
// An artifact bundles three things: the learner's complete prediction state
// (weights, support sets, tree nodes — exported through each package's
// Params surface), the feature schema it was trained on (names, domain
// cardinalities, foreign-key flags), and free-form provenance metadata. The
// feature schema is fingerprinted (SHA-256 over a canonical rendering), and
// every consumer — decoding, serving, evaluation — verifies the fingerprint
// before accepting inputs, so a model can never silently score rows whose
// columns mean something else. Encoding is fully deterministic: identical
// models produce identical bytes (maps are sorted, floats are stored as IEEE
// bits), which is what makes round-trip equality testable at the bit level.
package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/ml"
)

// Fingerprint identifies a feature schema: SHA-256 over the canonical
// rendering of the feature list (name, domain cardinality, FK flag, in
// order). Two models share a fingerprint exactly when their inputs are
// interchangeable.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits — enough for logs and /stats.
func (f Fingerprint) Short() string { return f.String()[:12] }

// FingerprintFeatures computes the schema fingerprint of a feature list.
func FingerprintFeatures(features []ml.Feature) Fingerprint {
	h := sha256.New()
	h.Write([]byte("hamlet-model-schema-v1\x00"))
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(features)))
	h.Write(scratch[:])
	for _, f := range features {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(f.Name)))
		h.Write(scratch[:])
		h.Write([]byte(f.Name))
		binary.LittleEndian.PutUint64(scratch[:], uint64(f.Cardinality))
		h.Write(scratch[:])
		if f.IsFK {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// SchemaMismatchError is the typed rejection a model raises when asked to
// consume inputs whose feature schema differs from the one it was trained
// on — different names, domains, order, or count.
type SchemaMismatchError struct {
	// Want is the fingerprint of the model's training schema; Got is the
	// fingerprint of the schema offered at decode/serve/eval time.
	Want, Got Fingerprint
	// Detail pinpoints the first difference when one is identifiable.
	Detail string
}

// Error implements error.
func (e *SchemaMismatchError) Error() string {
	msg := fmt.Sprintf("model: schema mismatch: model trained on %s, input schema is %s", e.Want.Short(), e.Got.Short())
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Model is one persisted learner: its kind tag, the feature schema it was
// trained on, free-form provenance metadata, and the live implementation.
type Model struct {
	// Kind tags the learner implementation (see KindOf).
	Kind string
	// Features is the training feature schema, in training column order.
	Features []ml.Feature
	// Meta carries provenance (dataset, scale, seed, spec, accuracies…).
	// Keys and values are free-form strings; encoding sorts keys.
	Meta map[string]string
	// Impl is the fitted learner: one of the pointer types enumerated in
	// KindOf. Use Classifier for the common binary-classifier view.
	Impl any
}

// New packages a fitted learner into a Model, validating that the
// implementation type is a registered kind.
func New(impl any, features []ml.Feature, meta map[string]string) (*Model, error) {
	kind, err := KindOf(impl)
	if err != nil {
		return nil, err
	}
	m := &Model{Kind: kind, Features: append([]ml.Feature(nil), features...), Impl: impl}
	if len(meta) > 0 {
		m.Meta = make(map[string]string, len(meta))
		for k, v := range meta {
			m.Meta[k] = v
		}
	}
	return m, nil
}

// Fingerprint returns the schema fingerprint of the model's feature list.
func (m *Model) Fingerprint() Fingerprint { return FingerprintFeatures(m.Features) }

// Classifier returns the implementation as a binary ml.Classifier. Every
// registered kind is one; ok is false only for a Model assembled by hand
// around some other value.
func (m *Model) Classifier() (ml.Classifier, bool) {
	c, ok := m.Impl.(ml.Classifier)
	return c, ok
}

// CheckFeatures verifies that the offered feature schema matches the model's
// training schema exactly, returning a *SchemaMismatchError naming the first
// difference otherwise. This is the gate every input path goes through.
func (m *Model) CheckFeatures(features []ml.Feature) error {
	want, got := m.Fingerprint(), FingerprintFeatures(features)
	if want == got {
		return nil
	}
	e := &SchemaMismatchError{Want: want, Got: got}
	if len(features) != len(m.Features) {
		e.Detail = fmt.Sprintf("model has %d features, input schema has %d", len(m.Features), len(features))
		return e
	}
	for j := range m.Features {
		a, b := m.Features[j], features[j]
		switch {
		case a.Name != b.Name:
			e.Detail = fmt.Sprintf("feature %d is %q, input schema has %q", j, a.Name, b.Name)
		case a.Cardinality != b.Cardinality:
			e.Detail = fmt.Sprintf("feature %q has domain size %d, input schema has %d", a.Name, a.Cardinality, b.Cardinality)
		case a.IsFK != b.IsFK:
			e.Detail = fmt.Sprintf("feature %q foreign-key flag differs", a.Name)
		default:
			continue
		}
		return e
	}
	return e
}

// Save encodes the model to a file (0644) atomically and durably: the bytes
// go to a temporary sibling, which is fsynced, then renamed over the target
// path, and the directory is fsynced so the rename itself survives a crash.
// A crash or I/O error at any step leaves the old artifact, none, or — when
// only opening or syncing the directory failed — the complete new one, never
// a truncated one; the temp file is removed on every error path.
func Save(path string, m *Model) error {
	return SaveFS(fault.OS, path, m)
}

// SaveFS is Save over an injectable filesystem; the fault tests script
// torn writes, ENOSPC, and sync failures through it.
func SaveFS(fsys fault.FS, path string, m *Model) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".model-*")
	if err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if err := Encode(tmp, m); err != nil {
		tmp.Close()
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	// Sync before rename: rename is atomic on POSIX filesystems, but without
	// the fsync a crash shortly after could publish a zero-length or partial
	// artifact under the final name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	if err := fsys.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	dir, err := fsys.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("model: save %s: sync directory: %w", path, err)
	}
	return nil
}

// Load decodes a model from a file.
func Load(path string) (*Model, error) {
	return LoadFS(fault.OS, path)
}

// LoadFS is Load over an injectable filesystem.
func LoadFS(fsys fault.FS, path string) (*Model, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	defer f.Close()
	m, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("model: load %s: %w", path, err)
	}
	return m, nil
}
