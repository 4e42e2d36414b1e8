package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dsplacer"
)

// fakeRequests mirrors ServeSet.Requests: designs×missesPerDesign
// requests, design by design.
func fakeRequests(designs int) []*ServeRequest {
	var reqs []*ServeRequest
	for d := 0; d < designs; d++ {
		design := &ServeDesign{Name: fmt.Sprintf("d%d", d)}
		for j := 0; j < missesPerDesign; j++ {
			reqs = append(reqs, &ServeRequest{Key: fmt.Sprintf("d%d/%d", d, j), Design: design})
		}
	}
	return reqs
}

func TestLoopsCachedFlagsAreKnown(t *testing.T) {
	reqs := fakeRequests(len(dsplacer.FamilySpecs()))
	loops := Loops(reqs, 42, 0)
	if len(loops) != serveClients {
		t.Fatalf("%d loops, want %d", len(loops), serveClients)
	}
	owner := make(map[*ServeRequest]int)
	misses, hits := 0, 0
	for c, loop := range loops {
		seen := make(map[*ServeRequest]bool)
		perDesign := make(map[*ServeDesign]int)
		for i, op := range loop {
			if o, ok := owner[op.Req]; ok && o != c {
				t.Fatalf("%s submitted by clients %d and %d: it could be in flight twice", op.Req.Key, o, c)
			}
			owner[op.Req] = c
			if op.Hit != seen[op.Req] {
				t.Fatalf("client %d op %d: %s hit=%v, but seen before=%v", c, i, op.Req.Key, op.Hit, seen[op.Req])
			}
			seen[op.Req] = true
			if op.Hit {
				hits++
			} else {
				misses++
				perDesign[op.Req.Design]++
			}
		}
		for d, n := range perDesign {
			if n != missesPerDesign/serveClients {
				t.Errorf("client %d places %s %d times, want %d", c, d.Name, n, missesPerDesign/serveClients)
			}
		}
	}
	if misses != len(reqs) || hits != len(reqs)*hitsPerMiss {
		t.Fatalf("%d misses and %d hits, want %d and %d", misses, hits, len(reqs), len(reqs)*hitsPerMiss)
	}
	if hits < 110 {
		t.Fatalf("%d hits: too few for ten samples above the hit p90", hits)
	}
}

func TestDriveRunsEveryOpInLoopOrder(t *testing.T) {
	loops := Loops(fakeRequests(4), 3, 0)
	var mu sync.Mutex
	next := make([]int, len(loops))
	set := &ServeSet{URL: "http://127.0.0.1:1"} // do never sends a request
	set.Drive(loops, func(_ *Client, loop, i int) {
		mu.Lock()
		defer mu.Unlock()
		if i != next[loop] {
			t.Errorf("loop %d ran op %d, want op %d", loop, i, next[loop])
		}
		next[loop] = i + 1
	})
	for l, n := range next {
		if n != len(loops[l]) {
			t.Errorf("loop %d ran %d ops, want %d", l, n, len(loops[l]))
		}
	}
}

func TestLoopsAndOrderFollowTheSeed(t *testing.T) {
	reqs := fakeRequests(4)
	if !reflect.DeepEqual(Loops(reqs, 7, 0), Loops(reqs, 7, 0)) {
		t.Fatal("same seed and pass gave different streams")
	}
	if reflect.DeepEqual(Loops(reqs, 7, 0), Loops(reqs, 8, 0)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if !reflect.DeepEqual(Order(15, 3, 1), Order(15, 3, 1)) {
		t.Fatal("same seed and pass gave different op orders")
	}
	seen := make(map[int]bool)
	for _, i := range Order(15, 3, 1) {
		seen[i] = true
	}
	if len(seen) != 15 {
		t.Fatalf("Order(15) is not a permutation: %d distinct", len(seen))
	}
}
