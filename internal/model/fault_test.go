package model

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nb"
)

// savedModel fits one Naive Bayes model for the fault scenarios.
func savedModel(t *testing.T) *Model {
	t.Helper()
	train, _ := trainData(t, 9)
	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := New(nbc, train.Features, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dirState lists a directory's entries for the no-temp-left-behind checks.
func dirState(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestSaveFaultAtomicity scripts every write-path fault through SaveFS and
// requires the atomic-publish contract each time: the save errors, the
// target path holds exactly what it held before (the old artifact or
// nothing), and no temp file is left behind. A failed directory sync comes
// after the rename, so there the target holds the complete new artifact.
func TestSaveFaultAtomicity(t *testing.T) {
	m := savedModel(t)
	for _, tc := range []struct {
		name      string
		rule      fault.Rule
		published bool // the fault comes after the rename
	}{
		{"torn-write", fault.Rule{Op: fault.OpWrite, Kind: fault.KindTorn, Nth: 1}, false},
		{"enospc", fault.Rule{Op: fault.OpWrite, Kind: fault.KindENOSPC, Nth: 1}, false},
		{"sync-fail", fault.Rule{Op: fault.OpSync, Kind: fault.KindEIO, Nth: 1}, false},
		{"rename-fail", fault.Rule{Op: fault.OpRename, Kind: fault.KindEIO, Nth: 1}, false},
		{"create-fail", fault.Rule{Op: fault.OpOpen, Kind: fault.KindENOSPC, Nth: 1}, false},
		// The second sync is the directory's, after the temp file's.
		{"dir-sync-fail", fault.Rule{Op: fault.OpSync, Kind: fault.KindEIO, Nth: 2}, true},
		// The second open is the directory's, after CreateTemp.
		{"dir-open-fail", fault.Rule{Op: fault.OpOpen, Kind: fault.KindEIO, Nth: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			target := filepath.Join(dir, "m.bin")

			// Fresh directory: the faulted save must fail and leave it empty,
			// or holding just the new artifact once the rename is done.
			inj := fault.NewInjector(fault.OS, 1, tc.rule)
			if err := SaveFS(inj, target, m); err == nil {
				t.Fatal("faulted save succeeded")
			}
			if inj.FiredTotal() == 0 {
				t.Fatal("fault never fired — the scenario tested nothing")
			}
			got := dirState(t, dir)
			if tc.published {
				if len(got) != 1 || got[0] != "m.bin" {
					t.Fatalf("failed directory sync left %v, want just m.bin", got)
				}
				if _, err := Load(target); err != nil {
					t.Fatalf("renamed artifact does not decode: %v", err)
				}
			} else if len(got) != 0 {
				t.Fatalf("failed save left %v behind", got)
			}

			// With a good artifact already published: the faulted save must
			// leave the old bytes readable and identical.
			if err := Save(target, m); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			inj = fault.NewInjector(fault.OS, 1, tc.rule)
			if err := SaveFS(inj, target, m); err == nil {
				t.Fatal("faulted overwrite succeeded")
			}
			after, err := os.ReadFile(target)
			if err != nil {
				t.Fatalf("old artifact unreadable after failed save: %v", err)
			}
			if string(before) != string(after) {
				t.Fatal("failed save modified the published artifact")
			}
			if got := dirState(t, dir); len(got) != 1 || got[0] != "m.bin" {
				t.Fatalf("failed overwrite left %v, want just m.bin", got)
			}
			if _, err := Load(target); err != nil {
				t.Fatalf("old artifact no longer decodes: %v", err)
			}
		})
	}
}

// TestLoadFaults: read-path faults surface as load errors, never as a
// half-decoded model.
func TestLoadFaults(t *testing.T) {
	m := savedModel(t)
	dir := t.TempDir()
	target := filepath.Join(dir, "m.bin")
	if err := Save(target, m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rule fault.Rule
	}{
		{"eio", fault.Rule{Op: fault.OpRead, Kind: fault.KindEIO, Nth: 1}},
		{"open-fail", fault.Rule{Op: fault.OpOpen, Kind: fault.KindEIO, Nth: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.NewInjector(fault.OS, 1, tc.rule)
			got, err := LoadFS(inj, target)
			if err == nil || got != nil {
				t.Fatalf("faulted load returned %v, %v", got, err)
			}
			if !strings.Contains(err.Error(), "model: load") {
				t.Fatalf("load error %q lost its context", err)
			}
		})
	}
	// The artifact is still fine through the real filesystem.
	if _, err := Load(target); err != nil {
		t.Fatal(err)
	}
	// A truncated artifact — what a torn write would have published without
	// the temp+fsync+rename dance — must fail to decode, not half-load.
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.bin")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(torn); err == nil {
		t.Fatalf("truncated artifact decoded into %v", got)
	}
}

// TestSaveLoadLatency: latency faults delay but do not fail the round trip.
func TestSaveLoadLatency(t *testing.T) {
	m := savedModel(t)
	dir := t.TempDir()
	target := filepath.Join(dir, "m.bin")
	inj := fault.NewInjector(fault.OS, 1,
		fault.Rule{Op: fault.OpWrite, Kind: fault.KindLatency, Every: 1},
		fault.Rule{Op: fault.OpSync, Kind: fault.KindLatency, Every: 1},
	)
	if err := SaveFS(inj, target, m); err != nil {
		t.Fatal(err)
	}
	if inj.FiredTotal() == 0 {
		t.Fatal("latency rules never fired")
	}
	got, err := Load(target)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Fingerprint() != m.Fingerprint() {
		t.Fatalf("round trip through latency faults changed the model: %s vs %s", got.Kind, m.Kind)
	}
}
