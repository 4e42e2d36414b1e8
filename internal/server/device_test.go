package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"dsplacer/internal/cache"
	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
)

// POST /v1/jobs with a device name places on that registry entry; the
// default (no device field) stays the server's configured device.
func TestSubmitSelectsDevice(t *testing.T) {
	env := startServer(t, Config{})
	nlData := smallNetlistJSON(t, 21)
	id, status := env.submit(t, map[string]any{
		"netlist":   json.RawMessage(nlData),
		"device":    "pynq-z2",
		"validate":  "final", // success implies the placement is DRC-clean on that fabric
		"mcf_iters": 4, "rounds": 1, "seed": 1,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	doc := env.pollUntil(t, id, terminal)
	if doc.State != "done" {
		t.Fatalf("job state %s (error %q)", doc.State, doc.Error)
	}
	if doc.Result == nil || doc.Result.Flow != "dsplacer" {
		t.Fatalf("missing or wrong result: %+v", doc.Result)
	}
}

// An unknown device must 400, and the error must list every registered
// part so the response doubles as a device listing.
func TestSubmitUnknownDeviceLists400(t *testing.T) {
	env := startServer(t, Config{})
	body := `{"netlist": ` + string(smallNetlistJSON(t, 22)) + `, "device": "no-such-part"}`
	resp, err := http.Post(env.http.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var doc map[string]string
	json.NewDecoder(resp.Body).Decode(&doc)
	for _, name := range fpga.Names() {
		if !strings.Contains(doc["error"], name) {
			t.Fatalf("error %q does not list device %s", doc["error"], name)
		}
	}
}

// The device is part of the cache key: identical requests on one device
// coalesce, but the same netlist on another device recomputes.
func TestDeviceSplitsCacheKey(t *testing.T) {
	env := startServer(t, Config{})
	nlData := smallNetlistJSON(t, 23)
	req := func(device string) map[string]any {
		m := map[string]any{
			"netlist":   json.RawMessage(nlData),
			"mcf_iters": 4, "rounds": 1, "seed": 1,
		}
		if device != "" {
			m["device"] = device
		}
		return m
	}
	run := func(device string) *ResultDoc {
		id, status := env.submit(t, req(device))
		if status != http.StatusAccepted {
			t.Fatalf("submit on %q: status %d", device, status)
		}
		doc := env.pollUntil(t, id, terminal)
		if doc.State != "done" {
			t.Fatalf("job on %q: state %s (error %q)", device, doc.State, doc.Error)
		}
		return doc.Result
	}
	if r := run("zcu104"); r.Cached {
		t.Fatal("first zcu104 run reported cached")
	}
	if r := run("zcu104"); !r.Cached {
		t.Fatal("second identical zcu104 run not served from cache")
	}
	// Explicit default == implicit default: same key.
	if r := run(""); !r.Cached {
		t.Fatal("implicit-default run not served by the explicit zcu104 entry")
	}
	if r := run("pynq-z2"); r.Cached {
		t.Fatal("pynq-z2 run served a zcu104 result from cache")
	}

	// The key split is visible at the key level too.
	preq := PlaceRequest{Netlist: nlData, MCFIters: 4, Rounds: 1, Seed: 1}
	kA := env.srv.requestKey(preq, fpga.MustDevice("zcu104"), "dsplacer", core.ValidateOff)
	kB := env.srv.requestKey(preq, fpga.MustDevice("pynq-z2"), "dsplacer", core.ValidateOff)
	if kA == kB {
		t.Fatal("cache keys identical across devices")
	}
}

// Across peered daemons the device still splits the key: a peer serves the
// same (netlist, device) pair but never a different device's placement.
func TestDeviceSplitsPeeredCache(t *testing.T) {
	shared := cache.NewLRU(16)
	envA := startServer(t, Config{Cache: shared})
	peered := &cache.Peered{Local: cache.NewLRU(16), Peers: []cache.Store{shared}}
	envB := startServer(t, Config{Cache: peered})

	nlData := smallNetlistJSON(t, 24)
	run := func(env *testEnv, device string) *ResultDoc {
		id, status := env.submit(t, map[string]any{
			"netlist":   json.RawMessage(nlData),
			"device":    device,
			"mcf_iters": 4, "rounds": 1, "seed": 1,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit on %q: status %d", device, status)
		}
		doc := env.pollUntil(t, id, terminal)
		if doc.State != "done" {
			t.Fatalf("job on %q: state %s (error %q)", device, doc.State, doc.Error)
		}
		return doc.Result
	}

	if r := run(envA, "zcu104"); r.Cached {
		t.Fatal("first zcu104 run on daemon A reported cached")
	}
	// Daemon B, same (netlist, device): served through the peer.
	if r := run(envB, "zcu104"); !r.Cached {
		t.Fatal("daemon B did not reuse daemon A's zcu104 placement")
	}
	if hits := peered.PeerHits(); hits != 1 {
		t.Fatalf("peer hits = %d, want 1", hits)
	}
	// Daemon B, same netlist on another device: must compute, not borrow.
	if r := run(envB, "zu15eg"); r.Cached {
		t.Fatal("daemon B served a zcu104 result for a zu15eg request")
	}
	if hits := peered.PeerHits(); hits != 1 {
		t.Fatalf("peer hits after cross-device request = %d, want still 1", hits)
	}
}
