package kernel

import (
	"encoding/binary"
	"errors"
	"testing"

	"splitmem/internal/snapshot"
)

// TestDecodeStateRejectsPIDAtOrAboveNext: an image whose next PID is not
// above every process it holds would let the next Spawn reuse a live PID,
// so decoding it fails as corrupt.
func TestDecodeStateRejectsPIDAtOrAboveNext(t *testing.T) {
	k := newKernel(t, Config{})
	spawn(t, k, exitSrc, "a")
	spawn(t, k, exitSrc, "b")
	w := snapshot.NewWriter()
	k.EncodeState(w)
	img := w.Bytes()

	if err := newKernel(t, Config{}).DecodeState(snapshot.NewReader(img)); err != nil {
		t.Fatalf("intact state: %v", err)
	}
	// The next PID follows the 8-byte RNG draw count.
	for _, next := range []int64{1, 2} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(bad[8:], uint64(next))
		err := newKernel(t, Config{}).DecodeState(snapshot.NewReader(bad))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("next pid %d with pids 1 and 2: %v, want ErrCorrupt", next, err)
		}
	}
}
