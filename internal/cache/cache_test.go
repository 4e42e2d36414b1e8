package cache

import (
	"fmt"
	"sync"
	"testing"
)

// storeImpls pins that every implementation satisfies Store.
var _ = []Store{(*LRU)(nil), (*Peered)(nil)}

func TestKeyOfBoundaries(t *testing.T) {
	// Length-prefixing makes part boundaries significant.
	a := KeyOf([]byte("ab"), []byte("c"))
	b := KeyOf([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("KeyOf is not injective over part boundaries")
	}
	if KeyOf([]byte("x")) != KeyOf([]byte("x")) {
		t.Fatal("KeyOf is not deterministic")
	}
	if KeyOf() == KeyOf([]byte{}) {
		t.Fatal("zero parts and one empty part must hash differently")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := NewLRU(4)
	k := KeyOf([]byte("design"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("result"))
	v, ok := c.Get(k)
	if !ok || string(v) != "result" {
		t.Fatalf("got %q %v, want result true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 4 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := NewLRU(2)
	k1, k2, k3 := KeyOf([]byte("1")), KeyOf([]byte("2")), KeyOf([]byte("3"))
	c.Put(k1, []byte("1"))
	c.Put(k2, []byte("2"))
	c.Get(k1) // k1 becomes most recent; k2 is now the eviction candidate
	c.Put(k3, []byte("3"))
	if _, ok := c.Get(k2); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if c.Stats().Entries != 2 {
		t.Fatalf("len %d, want 2", c.Stats().Entries)
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := NewLRU(2)
	k := KeyOf([]byte("k"))
	c.Put(k, []byte("old"))
	c.Put(k, []byte("new"))
	if v, _ := c.Get(k); string(v) != "new" {
		t.Fatalf("got %q, want new", v)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("replacement grew the cache to %d entries", c.Stats().Entries)
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	c := NewLRU(0)
	if got := c.Stats().Capacity; got != 64 {
		t.Fatalf("default capacity %d, want 64", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf([]byte(fmt.Sprintf("key-%d", i%32)))
				if i%2 == 0 {
					c.Put(k, []byte{byte(i)})
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Entries > 16 {
		t.Fatalf("cache over capacity: %d", c.Stats().Entries)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

func TestPeeredPromotesAndWritesThrough(t *testing.T) {
	local, peerA, peerB := NewLRU(8), NewLRU(8), NewLRU(8)
	p := &Peered{Local: local, Peers: []Store{peerA, peerB}}

	k1 := KeyOf([]byte("computed-elsewhere"))
	peerB.Put(k1, []byte("remote"))
	v, ok := p.Get(k1)
	if !ok || string(v) != "remote" {
		t.Fatalf("peer value not served: %q %v", v, ok)
	}
	if p.PeerHits() != 1 {
		t.Fatalf("peer hits %d, want 1", p.PeerHits())
	}
	// The peer hit was promoted: the next Get is local.
	if _, ok := local.Get(k1); !ok {
		t.Fatal("peer hit was not promoted into the local store")
	}

	k2 := KeyOf([]byte("computed-here"))
	p.Put(k2, []byte("mine"))
	for i, peer := range []*LRU{peerA, peerB} {
		if v, ok := peer.Get(k2); !ok || string(v) != "mine" {
			t.Fatalf("peer %d missing written-through value", i)
		}
	}
	if p.PeerPuts() != 2 {
		t.Fatalf("peer puts %d, want 2", p.PeerPuts())
	}
	if _, ok := p.Get(KeyOf([]byte("nowhere"))); ok {
		t.Fatal("hit for a key no store holds")
	}
}
