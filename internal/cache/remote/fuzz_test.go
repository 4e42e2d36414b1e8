package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"dsplacer/internal/cache"
)

// getFrame encodes a get request the way Client.Get does.
func getFrame(k cache.Key) []byte { return append([]byte{opGet}, k[:]...) }

// putFrame encodes a put request whose length prefix is n, followed by v.
// Client.Put always sends n == len(v); the seeds below also lie about it.
func putFrame(k cache.Key, n uint32, v []byte) []byte {
	f := append([]byte{opPut}, k[:]...)
	f = binary.LittleEndian.AppendUint32(f, n)
	return append(f, v...)
}

// serveAll runs serveOne over frames until it returns an error (io.EOF
// once the input is used up); every call consumes at least the op byte.
func serveAll(l *Listener, frames []byte, w io.Writer) {
	br := bufio.NewReader(bytes.NewReader(frames))
	bw := bufio.NewWriter(w)
	for l.serveOne(br, bw) == nil {
	}
	bw.Flush()
}

// FuzzRemoteFrame feeds untrusted bytes to the cache-peer frame decoder,
// Listener.serveOne, in-process: the fuzz input is the request stream, the
// responses go to io.Discard and a small LRU stands behind the listener.
// No input may panic. When the input opens with a complete put frame, that
// put followed by a get of its key is served again on a fresh store, and
// the response bytes must be the put's ack and then exactly the value put.
func FuzzRemoteFrame(f *testing.F) {
	k := cache.KeyOf([]byte("netlist"), []byte("zcu104"), []byte("params"))
	v := []byte(`{"res":{"Flow":"dsplacer"}}`)
	put := putFrame(k, uint32(len(v)), v)
	f.Add(getFrame(k))
	f.Add(put)
	f.Add([]byte{opStats})
	f.Add(append(append([]byte{}, put...), getFrame(k)...))
	f.Add(put[:len(put)-5])                            // truncated value
	f.Add(putFrame(k, maxValueLen+1, v))               // length above maxValueLen
	f.Add(append([]byte{0x7f}, getFrame(k)...))        // unknown op
	f.Add(append(putFrame(k, 0, nil), opStats, opGet)) // empty value, then a cut get

	f.Fuzz(func(t *testing.T, frames []byte) {
		serveAll(&Listener{store: cache.NewLRU(4)}, frames, io.Discard)

		const hdr = 1 + len(cache.Key{}) + 4
		if len(frames) < hdr || frames[0] != opPut {
			return
		}
		n := binary.LittleEndian.Uint32(frames[hdr-4 : hdr])
		if uint64(n) > uint64(len(frames)-hdr) {
			return // the put frame itself is cut short or oversized
		}
		end := hdr + int(n)
		var key cache.Key
		copy(key[:], frames[1:])
		req := append(frames[:end:end], getFrame(key)...)
		var out bytes.Buffer
		serveAll(&Listener{store: cache.NewLRU(4)}, req, &out)
		want := append([]byte{0, 1}, frames[hdr-4:end]...)
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("put of %d bytes then get answered %x, want %x", n, out.Bytes(), want)
		}
	})
}
