package workload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dsplacer"
	"dsplacer/internal/server"
)

// serve-mix request stream, per pass: every family design is placed
// freshly missesPerDesign times (distinct placement seeds, so distinct
// cache keys), and every fresh placement is re-submitted hitsPerMiss
// times: 16 misses, two of each design per client, and 112 hits, which
// put more than ten samples above the hit p90.
const (
	serveClients    = 2
	missesPerDesign = 4
	hitsPerMiss     = 7
	ServeDevice     = "pynq-z2"
)

// ServeDesign is one netlist of the serve-mix stream, encoded once.
type ServeDesign struct {
	Name    string
	FreqMHz float64
	Seed    int64
	JSON    []byte // the netlist in the netlist JSON schema
}

// ServeRequest is one distinct placement request: a design and a seed.
type ServeRequest struct {
	Key    string
	Design *ServeDesign
	Seed   int64
	Body   []byte // the encoded POST /v1/jobs body
}

// Config is the placement configuration the server derives from the
// request; replaying it through the program's own flow must give the
// request's result.
func (r *ServeRequest) Config() dsplacer.Config {
	return dsplacer.Config{ClockMHz: r.Design.FreqMHz, Seed: r.Seed, Validate: dsplacer.ValidateFinal}
}

// ServeOp is one op of a client's closed loop: POST the request, read its
// event stream to a terminal state, GET the job document. Hit says whether
// the stream guarantees the result is already cached.
type ServeOp struct {
	Req *ServeRequest
	Hit bool
}

// ServeSet is a running in-process dsplacerd on a loopback listener with
// the daemon's default two workers, plus the encoded designs.
type ServeSet struct {
	URL     string
	Designs []*ServeDesign

	srv     *server.Server
	httpSrv *http.Server
	served  chan error
}

func encodeRequest(d *ServeDesign, seed int64) (*ServeRequest, error) {
	body, err := json.Marshal(server.PlaceRequest{
		Netlist: d.JSON, Device: ServeDevice, FreqMHz: d.FreqMHz,
		Seed: seed, Validate: "final",
	})
	if err != nil {
		return nil, fmt.Errorf("encode %s request: %w", d.Name, err)
	}
	return &ServeRequest{Key: fmt.Sprintf("%s/seed%d", d.Name, seed), Design: d, Seed: seed, Body: body}, nil
}

func newServeDesign(spec dsplacer.Spec, dev *dsplacer.Device) (*ServeDesign, error) {
	nl, err := dsplacer.Generate(spec, dev)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	b, err := nl.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", spec.Name, err)
	}
	return &ServeDesign{Name: spec.Name, FreqMHz: spec.FreqMHz, Seed: flowSeedOffset + spec.Seed, JSON: b}, nil
}

// NewServeSet generates and encodes the pynq-z2 family designs, starts the
// server, and places one warm-up request on a design outside them and
// re-submits it once. Call Close to stop the server.
func NewServeSet(ctx context.Context) (*ServeSet, error) {
	dev, err := dsplacer.LookupDevice(ServeDevice)
	if err != nil {
		return nil, err
	}
	set := &ServeSet{}
	for _, spec := range dsplacer.FamilySpecs() {
		d, err := newServeDesign(spec, dev)
		if err != nil {
			return nil, err
		}
		set.Designs = append(set.Designs, d)
	}
	wd, err := newServeDesign(dsplacer.SmallSpec(), dev)
	if err != nil {
		return nil, err
	}
	warm, err := encodeRequest(wd, wd.Seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	set.URL = "http://" + ln.Addr().String()
	set.srv = server.New(server.Config{})
	set.httpSrv = &http.Server{Handler: set.srv.Handler()}
	set.served = make(chan error, 1)
	go func() { set.served <- set.httpSrv.Serve(ln) }()
	if err := set.warmUp(ctx, warm); err != nil {
		set.Close()
		return nil, fmt.Errorf("warm-up %s: %w", warm.Key, err)
	}
	return set, nil
}

func (s *ServeSet) warmUp(ctx context.Context, warm *ServeRequest) error {
	c := s.NewClient()
	defer c.Close()
	first := make(map[string]ServeQoR)
	for _, op := range []ServeOp{{Req: warm}, {Req: warm, Hit: true}} {
		doc, err := c.Place(ctx, warm.Body)
		if err == nil {
			err = CheckServe(op, doc, first)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains the server and waits for its listener goroutine to end.
func (s *ServeSet) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// Requests encodes the distinct requests of pass p: every design with
// missesPerDesign placement seeds no other pass uses.
func (s *ServeSet) Requests(p int) ([]*ServeRequest, error) {
	var out []*ServeRequest
	for _, d := range s.Designs {
		for j := 0; j < missesPerDesign; j++ {
			r, err := encodeRequest(d, d.Seed+int64(p*missesPerDesign+j))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Loops deals pass p's requests to the two clients and orders each
// client's loop from the seed. A request belongs to one client, which
// places it once (a miss) and then re-submits it hitsPerMiss times (hits),
// so each op's cached flag is known in advance and no request is ever in
// flight twice. Three properties keep the timings comparable across
// seeds: each client gets the same number of requests of every design, so
// neither finishes its placements early and leaves the other alone on the
// machine; every request gets the same number of hits, so the mix of
// netlist sizes the hits decode is fixed; and the hits follow their miss,
// so they keep running beside the other client's placements.
func Loops(reqs []*ServeRequest, seed int64, p int) [][]ServeOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(p)))
	var groups [][]*ServeRequest // reqs by design, in first-seen order
	index := make(map[*ServeDesign]int)
	for _, r := range reqs {
		i, ok := index[r.Design]
		if !ok {
			i = len(groups)
			index[r.Design] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	mine := make([][]*ServeRequest, serveClients)
	for _, g := range groups {
		for i, j := range rng.Perm(len(g)) {
			mine[i%serveClients] = append(mine[i%serveClients], g[j])
		}
	}
	loops := make([][]ServeOp, serveClients)
	for c, rs := range mine {
		for _, j := range rng.Perm(len(rs)) {
			loops[c] = append(loops[c], ServeOp{Req: rs[j]})
			for k := 0; k < hitsPerMiss; k++ {
				loops[c] = append(loops[c], ServeOp{Req: rs[j], Hit: true})
			}
		}
	}
	return loops
}

// Drive runs each loop on a closed-loop client of its own, on its own
// connection, and returns when all are done. do runs op i of a loop.
func (s *ServeSet) Drive(loops [][]ServeOp, do func(c *Client, loop, i int)) {
	var wg sync.WaitGroup
	for li, loop := range loops {
		wg.Add(1)
		go func(li, n int) {
			defer wg.Done()
			c := s.NewClient()
			defer c.Close()
			for i := 0; i < n; i++ {
				do(c, li, i)
			}
		}(li, len(loop))
	}
	wg.Wait()
}

// Client is one closed-loop client on its own keep-alive connection.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client of s that holds at most one connection.
func (s *ServeSet) NewClient() *Client {
	return &Client{base: s.URL, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// Close drops the client's idle connection.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// Submit POSTs a request and returns the job id.
func (c *Client) Submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(req, http.StatusAccepted, &out); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if out.ID == "" {
		return "", fmt.Errorf("submit: no job id in response")
	}
	return out.ID, nil
}

// Wait reads the job's event stream until its terminal state event and
// returns that state.
func (c *Client) Wait(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %s", resp.Status)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: decode %q: %w", data, err)
		}
		if ev.Type == "state" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	switch state {
	case "done", "failed", "canceled":
		return state, nil
	}
	return "", fmt.Errorf("events: stream ended in state %q", state)
}

// Fetch GETs the job document.
func (c *Client) Fetch(ctx context.Context, id string) (*server.JobDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var doc server.JobDoc
	if err := c.do(req, http.StatusOK, &doc); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return &doc, nil
}

// Metrics GETs the Prometheus text of /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics: status %s", resp.Status)
	}
	return string(b), nil
}

// do sends req, requires status want and decodes the JSON body into out.
// The body is read to its end so the connection is reused.
func (c *Client) do(req *http.Request, want int, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// Place runs one op through the API: submit, wait, fetch.
func (c *Client) Place(ctx context.Context, body []byte) (*server.JobDoc, error) {
	id, err := c.Submit(ctx, body)
	if err != nil {
		return nil, err
	}
	if _, err := c.Wait(ctx, id); err != nil {
		return nil, err
	}
	return c.Fetch(ctx, id)
}

// ServeQoR is the part of a job's result a re-submission must reproduce.
type ServeQoR struct {
	WNS, TNS, HPWL, RoutedWL float64
	Overflow, DatapathDSPs   int
}

// CheckServe is the output check of a serve-mix op: the job is done, its
// cached flag is what the stream expects, and its QoR is finite on a miss
// and equal to the key's first computation (first) on a hit.
func CheckServe(op ServeOp, doc *server.JobDoc, first map[string]ServeQoR) error {
	if doc.State != "done" || doc.Result == nil {
		return fmt.Errorf("job %s ended %q: %s", doc.ID, doc.State, doc.Error)
	}
	r := doc.Result
	if r.Cached != op.Hit {
		return fmt.Errorf("cached=%v, the stream expects %v", r.Cached, op.Hit)
	}
	q := ServeQoR{WNS: r.WNS, TNS: r.TNS, HPWL: r.HPWL, RoutedWL: r.RoutedWL,
		Overflow: r.Overflow, DatapathDSPs: r.DatapathDSPs}
	if !op.Hit {
		if !(q.HPWL > 0) || math.IsInf(q.HPWL, 0) || math.IsNaN(q.WNS) || math.IsInf(q.WNS, 0) {
			return fmt.Errorf("QoR not finite: HPWL %v, WNS %v", q.HPWL, q.WNS)
		}
		first[op.Req.Key] = q
		return nil
	}
	want, ok := first[op.Req.Key]
	if !ok {
		return fmt.Errorf("hit on %s before its first computation was checked", op.Req.Key)
	}
	if q != want {
		return fmt.Errorf("QoR %+v differs from the first computation %+v", q, want)
	}
	return nil
}
