package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCheckpointDecode asserts the decoder's contract on arbitrary
// input: it never panics, every failure is one of the package's typed
// errors, and every accepted snapshot re-encodes to the exact input
// bytes (the format is canonical, so decode∘encode is the identity).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(fullSnapshot().Encode())
	f.Add((&Snapshot{Active: 1, DIPWidth: 1, DIPWords: []uint64{2}}).Encode())
	f.Add((&Snapshot{Active: 2, DIPWidth: 7, DIPWords: []uint64{1, 0}}).Encode())
	f.Add([]byte("CASCKPT"))
	f.Add([]byte{})
	f.Add(mustHex(f, snapshotV1))
	f.Add(mustHex(f, snapshotV2))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatal("accepted snapshot does not re-encode to its input")
		}
	})
}
