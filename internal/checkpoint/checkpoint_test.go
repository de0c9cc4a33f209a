package checkpoint

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fullSnapshot builds a snapshot exercising every field.
func fullSnapshot() *Snapshot {
	return &Snapshot{
		LockedHash:    "sha256:locked",
		OracleHash:    "sha256:oracle",
		OptionsSig:    "v3 seed=7 satwidth=0",
		Active:        2,
		Calib:         5,
		Phase:         "enumerate",
		EnumComplete:  true,
		DIPWidth:      8,
		DIPWords:      []uint64{0xDEAD, 0xBEEF, 1, 0},
		OracleQueries: 4242,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"full": fullSnapshot(),
		"minimal": {
			Active:   1,
			DIPWidth: 3,
			DIPWords: []uint64{0b10110},
		},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Decode(s.Encode())
			if err != nil {
				t.Fatal(err)
			}
			// Encode normalizes nil and empty slices identically; compare
			// through a re-encode for those.
			if !reflect.DeepEqual(got.Encode(), s.Encode()) {
				t.Fatal("decoded snapshot re-encodes differently")
			}
			if got.LockedHash != s.LockedHash || got.Active != s.Active ||
				got.DIPWidth != s.DIPWidth || got.EnumComplete != s.EnumComplete {
				t.Fatalf("decoded snapshot differs: %+v vs %+v", got, s)
			}
		})
	}
}

// TestDecodeTruncated feeds every proper prefix of a valid snapshot to
// the decoder: each must fail with a typed error, never panic.
func TestDecodeTruncated(t *testing.T) {
	data := fullSnapshot().Encode()
	for n := 0; n < len(data); n++ {
		s, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded: %+v", n, len(data), s)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}
}

// TestDecodeBitFlips flips one byte at every offset: the magic yields
// ErrFormat, the version byte ErrVersion, everything else ErrChecksum.
func TestDecodeBitFlips(t *testing.T) {
	data := fullSnapshot().Encode()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		_, err := Decode(mut)
		var want error
		switch {
		case i < 7:
			want = ErrFormat
		case i == 7:
			want = ErrVersion
		default:
			want = ErrChecksum
		}
		if !errors.Is(err, want) {
			t.Fatalf("flip at %d: got %v, want %v", i, err, want)
		}
	}
}

// TestDecodeSemanticValidation covers well-checksummed snapshots whose
// fields violate the format invariants.
func TestDecodeSemanticValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"active-zero":      func(s *Snapshot) { s.Active = 0 },
		"active-three":     func(s *Snapshot) { s.Active = 3 },
		"width-zero":       func(s *Snapshot) { s.DIPWidth = 0 },
		"width-over-cap":   func(s *Snapshot) { s.DIPWidth = 35 },
		"word-count-short": func(s *Snapshot) { s.DIPWords = s.DIPWords[:1] },
		"word-count-long":  func(s *Snapshot) { s.DIPWords = append(s.DIPWords, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			s := fullSnapshot()
			mutate(s)
			if _, err := Decode(s.Encode()); !errors.Is(err, ErrFormat) {
				t.Fatalf("got %v, want ErrFormat", err)
			}
		})
	}
}

// snapshotV1 is a version-1 snapshot (Active 1, one-bit DIP set, empty
// banks) as the version-1 encoder wrote it, conflict-rate field
// included. Its checksum is valid: only the version byte refuses it.
const snapshotV1 = "434153434b505401" +
	"0000000000000000" + "0000000000000000" + "0000000000000000" + // hashes, options
	"0100000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + // active, calib, phase, complete
	"0100000000000000" + "0100000000000000" + "0200000000000000" + // DIP width, word count, word
	"0000000000000000" + "0000000000000000" + // query tally, conflict rate
	"0000000000000000" + "0000000000000000" + // bank counts
	"b882f6f61de261921da6782d0186c0ec64c2d7550cdf79e34a8e3f8b5c3cbe97"

// snapshotV2 is a version-2 snapshot (Active 1, one-bit DIP set, one
// banked 64-lane and one banked scalar oracle answer) as the version-2
// encoder wrote it. Its checksum is valid: only the version byte
// refuses it.
const snapshotV2 = "434153434b505402" +
	"0000000000000000" + "0000000000000000" + "0000000000000000" + // hashes, options
	"0100000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + // active, calib, phase, complete
	"0100000000000000" + "0100000000000000" + "0200000000000000" + // DIP width, word count, word
	"0000000000000000" + // query tally
	"0100000000000000" + "0100000000000000" + "0300000000000000" + "0100000000000000" + "0400000000000000" + // one word response
	"0100000000000000" + "0100000000000000" + "01" + "0100000000000000" + "00" + // one scalar response
	"94e340e9a0fe76d206b3bd2707b4d8da35e39011ef2663fc2f1fce3f897b6f47"

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeRejectsVersion1 pins the format bumps: a well-formed
// version-1 or version-2 snapshot is a typed ErrVersion, never a
// misparse.
func TestDecodeRejectsVersion1(t *testing.T) {
	for version, snap := range map[int]string{1: snapshotV1, 2: snapshotV2} {
		if _, err := Decode(mustHex(t, snap)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d snapshot: got %v, want ErrVersion", version, err)
		}
	}
}

func TestWriteFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	s := fullSnapshot()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Encode(), s.Encode()) {
		t.Fatal("loaded snapshot differs")
	}

	// Overwrite with a newer snapshot; the write replaces atomically and
	// leaves no temp files behind.
	s.OracleQueries = 9999
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.OracleQueries != 9999 {
		t.Fatalf("OracleQueries = %d after overwrite, want 9999", got.OracleQueries)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries, want 1", len(entries))
	}
}

func TestLoadCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	data := fullSnapshot().Encode()
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestWriterCadenceAndFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	tel := telemetry.New()
	w, err := NewWriter(WriterConfig{
		Path: path, EveryEvents: 4, Interval: time.Hour,
		OracleHash: "sha256:oracle", Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Tick(3) {
		t.Fatal("snapshot due after 3/4 events")
	}
	if !w.Tick(1) {
		t.Fatal("snapshot not due after 4/4 events")
	}
	s := fullSnapshot()
	s.OracleHash = "" // the writer stamps its configured hash
	w.Offer(s)
	if w.Tick(1) {
		t.Fatal("Offer did not reset the event cadence")
	}
	w.Close()
	if got := w.Writes(); got != 1 {
		t.Fatalf("Writes = %d after Close, want 1", got)
	}
	if got := tel.Counter("checkpoint_writes_total").Value(); got != 1 {
		t.Fatalf("checkpoint_writes_total = %d, want 1", got)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.OracleHash != "sha256:oracle" {
		t.Fatalf("OracleHash = %q, want the writer's configured hash", got.OracleHash)
	}
	if v := tel.Gauge("checkpoint_bytes").Value(); v <= 0 {
		t.Fatalf("checkpoint_bytes = %d, want > 0", v)
	}
}

func TestWriterTimerCadence(t *testing.T) {
	w, err := NewWriter(WriterConfig{
		Path: filepath.Join(t.TempDir(), "snap.ckpt"), Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !w.Tick(0) {
		if time.Now().After(deadline) {
			t.Fatal("interval timer never made a snapshot due")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterStaleEviction drives Offer faster than the writer can drain
// and asserts the newest snapshot wins: dropped intermediates only widen
// the resume gap, the final state always lands.
func TestWriterStaleEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	tel := telemetry.New()
	w, err := NewWriter(WriterConfig{Path: path, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	for i := 1; i <= rounds; i++ {
		s := fullSnapshot()
		s.OracleQueries = uint64(i)
		w.Offer(s)
	}
	w.Close()
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.OracleQueries != rounds {
		t.Fatalf("final snapshot has OracleQueries=%d, want %d (newest must win)", got.OracleQueries, rounds)
	}
	if w.Writes()+tel.Counter("checkpoint_dropped_total").Value() < rounds-1 {
		t.Fatalf("writes=%d drops=%d do not account for %d offers",
			w.Writes(), tel.Counter("checkpoint_dropped_total").Value(), rounds)
	}
}

func TestNewWriterValidation(t *testing.T) {
	if _, err := NewWriter(WriterConfig{}); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := NewWriter(WriterConfig{Path: "x", EveryEvents: -1}); err == nil {
		t.Fatal("negative cadence accepted")
	}
}
