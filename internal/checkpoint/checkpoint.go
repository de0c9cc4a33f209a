// Package checkpoint makes attack progress durable: a versioned,
// length-prefixed binary snapshot of everything an interrupted DIP
// attack cannot afford to lose — the accumulated DIP set (the
// enumeration it would otherwise redo) and the hypothesis/phase
// position.
// Snapshots are written atomically (temp + rename) with a SHA-256
// self-checksum, so a crash mid-write leaves either the previous
// snapshot or none, never a torn one, and bit rot is detected on load
// instead of corrupting a resumed run.
//
// The codec is deliberately paranoid: every read is bounds-checked,
// every count capped, and every failure is one of the typed errors
// below — a fuzzer feeding truncated or bit-flipped snapshots must
// never panic the decoder.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Typed decode failures. Decode and Load never panic on hostile input;
// they return an error wrapping one of these.
var (
	// ErrTruncated: the input ends before the declared structure does.
	ErrTruncated = errors.New("checkpoint: snapshot truncated")
	// ErrFormat: the input is not a checkpoint snapshot, or a field
	// violates the format's invariants.
	ErrFormat = errors.New("checkpoint: malformed snapshot")
	// ErrVersion: the snapshot's version byte is not the one this
	// decoder reads (older snapshots are refused, not migrated).
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrChecksum: the SHA-256 trailer does not match the payload.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
)

// magic opens every snapshot; the final byte is the format version.
var magic = [8]byte{'C', 'A', 'S', 'C', 'K', 'P', 'T', 3}

// Decoder sanity caps: far above anything a real attack produces, low
// enough that a hostile length prefix cannot balloon allocations.
const (
	maxStringLen   = 1 << 12
	maxDIPWords    = 1 << 28 // 2 GiB of DIP words = the core DIPSet cap (n = 34)
	maxDIPWidth    = 34
	checksumLen    = sha256.Size
	minSnapshotLen = len(magic) + checksumLen
)

// Snapshot is the durable state of one attack in flight. Identity
// fields pin the snapshot to a specific (netlist, oracle, options)
// triple so a resume against the wrong instance is refused; progress
// fields let the resumed run skip or seed work instead of redoing it.
type Snapshot struct {
	// LockedHash is bench.Hash of the attacked netlist (for MCAS runs,
	// of the SPS-stripped inner instance), set by core.
	LockedHash string
	// OracleHash is bench.Hash of the oracle netlist. Core cannot see
	// through the Oracle interface, so the boundary that owns the
	// netlist (CLI, service) configures it on the Writer, which stamps
	// it into every snapshot it writes, and validates it on resume.
	OracleHash string
	// OptionsSig fingerprints the semantics-affecting attack options.
	OptionsSig string

	// Active is the Lemma-1 hypothesis (1 or 2) in progress at snapshot
	// time; earlier hypotheses have already failed deterministically.
	Active int
	// Calib is the calibration candidate whose extraction produced
	// DIPWords (0 = the main, uncalibrated extraction).
	Calib uint64
	// Phase is the attack phase at snapshot time (informational).
	Phase string
	// EnumComplete records whether the (Active, Calib) enumeration had
	// finished: a complete set is restored wholesale, a partial one is
	// replayed as blocking clauses and enumeration continues.
	EnumComplete bool

	// DIPWidth/DIPWords are the accumulated DIP set for (Active, Calib):
	// the packed bitset words of a core.DIPSet over DIPWidth-bit block
	// patterns.
	DIPWidth int
	DIPWords []uint64

	// OracleQueries is the attack's logical query tally at snapshot time
	// (informational; the resumed run re-derives its own tally).
	OracleQueries uint64
}

// Encode serializes the snapshot: magic+version, length-prefixed
// fields, SHA-256 trailer over everything preceding it.
func (s *Snapshot) Encode() []byte {
	var b []byte
	b = append(b, magic[:]...)
	b = putString(b, s.LockedHash)
	b = putString(b, s.OracleHash)
	b = putString(b, s.OptionsSig)
	b = putU64(b, uint64(s.Active))
	b = putU64(b, s.Calib)
	b = putString(b, s.Phase)
	b = putBool(b, s.EnumComplete)
	b = putU64(b, uint64(s.DIPWidth))
	b = putWords(b, s.DIPWords)
	b = putU64(b, s.OracleQueries)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// Decode parses and validates a snapshot. All failures wrap one of the
// package's typed errors.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < minSnapshotLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), minSnapshotLen)
	}
	if string(data[:len(magic)-1]) != string(magic[:len(magic)-1]) {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if data[len(magic)-1] != magic[len(magic)-1] {
		return nil, fmt.Errorf("%w: version %d, decoder supports %d", ErrVersion, data[len(magic)-1], magic[len(magic)-1])
	}
	payload, trailer := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("%w", ErrChecksum)
	}
	r := reader{buf: payload[len(magic):]}
	s := &Snapshot{}
	s.LockedHash = r.str()
	s.OracleHash = r.str()
	s.OptionsSig = r.str()
	active := r.u64()
	s.Calib = r.u64()
	s.Phase = r.str()
	s.EnumComplete = r.boolean()
	width := r.u64()
	s.DIPWords = r.words(maxDIPWords)
	s.OracleQueries = r.u64()
	if r.err == nil && len(r.buf) != 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
	}
	if active != 1 && active != 2 {
		return nil, fmt.Errorf("%w: active hypothesis %d", ErrFormat, active)
	}
	s.Active = int(active)
	if width < 1 || width > maxDIPWidth {
		return nil, fmt.Errorf("%w: DIP width %d outside [1, %d]", ErrFormat, width, maxDIPWidth)
	}
	s.DIPWidth = int(width)
	wantWords := 1
	if width > 6 {
		wantWords = 1 << (width - 6)
	}
	if len(s.DIPWords) != wantWords {
		return nil, fmt.Errorf("%w: %d DIP words for width %d, want %d", ErrFormat, len(s.DIPWords), width, wantWords)
	}
	return s, nil
}

// WriteFile atomically persists the snapshot: encoded into a temp file
// in the destination directory, fsync'd, then renamed over path.
func (s *Snapshot) WriteFile(path string) error {
	data := s.Encode()
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	return nil
}

// Load reads and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return s, nil
}

// reader is a bounds-checked cursor over the payload; the first failure
// sticks and every subsequent read returns zero values.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("%w: field header past end", ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) boolean() bool {
	switch r.u64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean out of range")
		return false
	}
}

func (r *reader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail("length %d exceeds cap %d", n, maxStringLen)
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.err = fmt.Errorf("%w: %d declared bytes, %d remain", ErrTruncated, n, len(r.buf))
		return ""
	}
	out := string(r.buf[:n])
	r.buf = r.buf[n:]
	return out
}

func (r *reader) words(max uint64) []uint64 {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail("word count %d exceeds cap %d", n, max)
		return nil
	}
	if uint64(len(r.buf)) < n*8 {
		r.err = fmt.Errorf("%w: %d declared words, %d bytes remain", ErrTruncated, n, len(r.buf))
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[i*8:])
	}
	r.buf = r.buf[n*8:]
	return out
}

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return putU64(b, 1)
	}
	return putU64(b, 0)
}

func putString(b []byte, v string) []byte {
	b = putU64(b, uint64(len(v)))
	return append(b, v...)
}

func putWords(b []byte, ws []uint64) []byte {
	b = putU64(b, uint64(len(ws)))
	for _, w := range ws {
		b = putU64(b, w)
	}
	return b
}
