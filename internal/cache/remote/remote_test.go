package remote

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dsplacer/internal/cache"
)

// startPair serves an LRU of the given capacity and dials one client to it.
func startPair(t *testing.T, capacity int) (*Listener, *Client) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", cache.NewLRU(capacity))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c := Dial(l.Addr().String(), 2*time.Second)
	t.Cleanup(func() { c.Close() })
	return l, c
}

func TestClientServerRoundTrip(t *testing.T) {
	_, c := startPair(t, 64)
	k := cache.KeyOf([]byte("netlist"), []byte("zcu104"), []byte("params"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty remote store")
	}
	want := bytes.Repeat([]byte("placement-result "), 1000)
	c.Put(k, want)
	v, ok := c.Get(k)
	if !ok || !bytes.Equal(v, want) {
		t.Fatalf("remote value mismatch: ok=%v len=%d want %d", ok, len(v), len(want))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("remote stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if c.Errors() != 0 {
		t.Fatalf("client counted %d errors on a healthy link", c.Errors())
	}
}

func TestEmptyValueAndOverwrite(t *testing.T) {
	_, c := startPair(t, 64)
	k := cache.KeyOf([]byte("k"))
	c.Put(k, nil) // zero-length values are legal frames
	if v, ok := c.Get(k); !ok || len(v) != 0 {
		t.Fatalf("empty value roundtrip: %v %v", v, ok)
	}
	c.Put(k, []byte("v2"))
	if v, ok := c.Get(k); !ok || string(v) != "v2" {
		t.Fatalf("overwrite: %q %v", v, ok)
	}
}

// TestConcurrentClients: many goroutines sharing one client plus a second
// client must serialize cleanly over their connections.
func TestConcurrentClients(t *testing.T) {
	const workers, keys = 8, 50
	// Each worker reads back its own Put while the others keep writing, so
	// the store holds every key: with less room, a key could be evicted
	// between its Put and its Get.
	l, c1 := startPair(t, workers*keys)
	c2 := Dial(l.Addr().String(), 2*time.Second)
	defer c2.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := c1
			if w%2 == 1 {
				c = c2
			}
			for i := 0; i < keys; i++ {
				k := cache.KeyOf([]byte(fmt.Sprintf("key-%d-%d", w, i)))
				c.Put(k, []byte{byte(w), byte(i)})
				if v, ok := c.Get(k); !ok || v[0] != byte(w) || v[1] != byte(i) {
					t.Errorf("w=%d i=%d: got %v %v", w, i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c1.Errors()+c2.Errors() != 0 {
		t.Fatalf("errors on healthy link: %d + %d", c1.Errors(), c2.Errors())
	}
}

// TestDeadPeerDegrades: a client pointed at a closed port must answer Get
// with a miss and swallow Put — never error, never hang.
func TestDeadPeerDegrades(t *testing.T) {
	l, err := Listen("127.0.0.1:0", cache.NewLRU(4))
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the port is now dead
	c := Dial(addr, 200*time.Millisecond)
	defer c.Close()
	k := cache.KeyOf([]byte("k"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := c.Get(k); ok {
			t.Error("hit from a dead peer")
		}
		c.Put(k, []byte("v"))
		if st := c.Stats(); st != (cache.Stats{}) {
			t.Errorf("dead-peer stats %+v, want zero", st)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dead peer blocked the client")
	}
	if c.Errors() == 0 {
		t.Fatal("degraded round trips were not counted")
	}
}

// TestClientRecoversAfterRestart: a failed round trip drops the connection
// and the next call redials, so a peer restart heals without intervention.
func TestClientRecoversAfterRestart(t *testing.T) {
	store := cache.NewLRU(16)
	l, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	c := Dial(addr, time.Second)
	defer c.Close()
	k := cache.KeyOf([]byte("k"))
	c.Put(k, []byte("v1"))
	if _, ok := c.Get(k); !ok {
		t.Fatal("pre-restart roundtrip failed")
	}
	l.Close()
	if _, ok := c.Get(k); ok {
		t.Fatal("hit while the peer was down")
	}
	// Restart on the same port; the OS may briefly refuse, so retry.
	var l2 *Listener
	for i := 0; i < 50; i++ {
		if l2, err = Listen(addr, store); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	ok := false
	for i := 0; i < 50 && !ok; i++ {
		_, ok = c.Get(k)
		if !ok {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("client never recovered after peer restart")
	}
}

// TestPeeredOverRemote wires the full composition two daemons use: each
// side has a local store served by a Listener, and a Peered store reaching
// the other side — a value computed on A is served to B.
func TestPeeredOverRemote(t *testing.T) {
	localA, localB := cache.NewLRU(16), cache.NewLRU(16)
	lnA, err := Listen("127.0.0.1:0", localA)
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := Listen("127.0.0.1:0", localB)
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	peeredA := &cache.Peered{Local: localA, Peers: []cache.Store{Dial(lnB.Addr().String(), time.Second)}}
	peeredB := &cache.Peered{Local: localB, Peers: []cache.Store{Dial(lnA.Addr().String(), time.Second)}}

	k := cache.KeyOf([]byte("shared"))
	peeredA.Put(k, []byte("result")) // A computes: local + write-through to B
	if v, ok := localB.Get(k); !ok || string(v) != "result" {
		t.Fatalf("write-through did not reach B: %q %v", v, ok)
	}
	if v, ok := peeredB.Get(k); !ok || string(v) != "result" {
		t.Fatalf("B cannot serve the shared result: %q %v", v, ok)
	}

	// Pull path: a value only A holds is fetched and promoted by B.
	k2 := cache.KeyOf([]byte("only-on-a"))
	localA.Put(k2, []byte("pull"))
	if v, ok := peeredB.Get(k2); !ok || string(v) != "pull" {
		t.Fatalf("B did not pull from peer A: %q %v", v, ok)
	}
	if peeredB.PeerHits() != 1 {
		t.Fatalf("B peer hits %d, want 1", peeredB.PeerHits())
	}
	if _, ok := localB.Get(k2); !ok {
		t.Fatal("pulled value was not promoted into B's local store")
	}
}
