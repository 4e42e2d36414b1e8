// Package remote serves a cache.Store over TCP with a length-prefixed
// binary protocol, so N dsplacerd daemons can share one placement cache
// (DESIGN.md §14): each daemon exposes its local store through a Listener
// and reaches the others through Clients, which implement cache.Store.
//
// Wire protocol (all integers little-endian):
//
//	request  = op(1) key(32) [valueLen(u32) value]   // value only for opPut
//	response = opGet:   found(1) [valueLen(u32) value]
//	           opPut:   ack(1)=0
//	           opStats: hits(u64) misses(u64) entries(u64) capacity(u64)
//
// One request/response pair per round trip; a client serializes its round
// trips over one persistent connection and redials lazily after an error.
// Network failures degrade: Get becomes a miss, Put a no-op — a dead peer
// never fails a placement, it only loses the shared-cache speedup.
package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dsplacer/internal/cache"
)

const (
	opGet byte = iota + 1
	opPut
	opStats
)

// maxValueLen bounds a single cached value on the wire (a serialized
// placement result for the Table-I netlists is well under this).
const maxValueLen = 1 << 30

// defaultTimeout bounds one client round trip, dial included.
const defaultTimeout = 5 * time.Second

// Listener serves a cache.Store to remote Clients.
type Listener struct {
	store cache.Store
	ln    net.Listener
	wg    sync.WaitGroup
	done  chan struct{}
}

// Listen starts serving store on addr (e.g. "127.0.0.1:7070"). Close stops
// the listener and its connections.
func Listen(addr string, store cache.Store) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cache/remote: listen %s: %w", addr, err)
	}
	l := &Listener{store: store, ln: ln, done: make(chan struct{})}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting and waits for in-flight connections to unwind.
func (l *Listener) Close() error {
	close(l.done)
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
				// Transient accept failure; keep serving unless closed.
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		l.wg.Add(1)
		go l.serve(conn)
	}
}

// serve answers one connection's requests until EOF, error, or Close.
func (l *Listener) serve(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	// Unblock reads when the listener closes so wg.Wait cannot hang on an
	// idle client connection.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-l.done:
			conn.SetDeadline(time.Now())
		case <-stop:
		}
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if err := l.serveOne(br, bw); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (l *Listener) serveOne(br *bufio.Reader, bw *bufio.Writer) error {
	op, err := br.ReadByte()
	if err != nil {
		return err
	}
	switch op {
	case opGet:
		var k cache.Key
		if _, err := io.ReadFull(br, k[:]); err != nil {
			return err
		}
		v, ok := l.store.Get(k)
		if !ok {
			return bw.WriteByte(0)
		}
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		return writeValue(bw, v)
	case opPut:
		var k cache.Key
		if _, err := io.ReadFull(br, k[:]); err != nil {
			return err
		}
		v, err := readValue(br)
		if err != nil {
			return err
		}
		l.store.Put(k, v)
		return bw.WriteByte(0)
	case opStats:
		st := l.store.Stats()
		var buf [32]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(st.Hits))
		binary.LittleEndian.PutUint64(buf[8:], uint64(st.Misses))
		binary.LittleEndian.PutUint64(buf[16:], uint64(st.Entries))
		binary.LittleEndian.PutUint64(buf[24:], uint64(st.Capacity))
		_, err := bw.Write(buf[:])
		return err
	default:
		return fmt.Errorf("cache/remote: unknown op %d", op)
	}
}

func writeValue(w io.Writer, v []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(v)
	return err
}

// readValue reads one length-prefixed value. The length prefix comes from
// the peer and is untrusted, so the buffer grows with the bytes that
// actually arrive: a frame that claims a large value and then ends costs
// what it sent, not what it claimed.
func readValue(r io.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if ln > maxValueLen {
		return nil, fmt.Errorf("cache/remote: value length %d exceeds %d", ln, maxValueLen)
	}
	var v bytes.Buffer
	if _, err := io.CopyN(&v, r, int64(ln)); err != nil {
		return nil, err
	}
	return v.Bytes(), nil
}

// Client reaches a remote Listener and implements cache.Store. The zero
// value is not usable; construct with Dial. All methods degrade on network
// failure (Get → miss, Put → no-op, Stats → zero) and count the failure,
// dropping the connection so the next call redials.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex // serializes round trips on the shared connection
	conn net.Conn
	br   *bufio.Reader

	errs atomic.Int64
}

// Dial creates a client for the Listener at addr. The connection is
// established lazily on first use; timeout <= 0 selects 5s per round trip.
func Dial(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

// Addr returns the peer address this client dials.
func (c *Client) Addr() string { return c.addr }

// Errors returns how many round trips failed and were degraded.
func (c *Client) Errors() int64 { return c.errs.Load() }

// Close drops the connection; a later call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.br = nil, nil
		return err
	}
	return nil
}

// connLocked returns a live connection, dialing if needed. Caller holds c.mu.
func (c *Client) connLocked() (net.Conn, *bufio.Reader, error) {
	if c.conn != nil {
		return c.conn, c.br, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, nil, err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return c.conn, c.br, nil
}

// roundTrip writes one request and parses the response under the lock; on
// any error the connection is dropped and the error counted.
func (c *Client) roundTrip(req []byte, parse func(*bufio.Reader) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, br, err := c.connLocked()
	if err == nil {
		conn.SetDeadline(time.Now().Add(c.timeout))
		if _, err = conn.Write(req); err == nil {
			err = parse(br)
		}
	}
	if err != nil {
		c.errs.Add(1)
		if c.conn != nil {
			c.conn.Close()
			c.conn, c.br = nil, nil
		}
	}
	return err
}

// Get implements cache.Store; a network failure reads as a miss.
func (c *Client) Get(k cache.Key) ([]byte, bool) {
	req := make([]byte, 1+len(k))
	req[0] = opGet
	copy(req[1:], k[:])
	var v []byte
	var found bool
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		b, err := br.ReadByte()
		if err != nil {
			return err
		}
		if b == 0 {
			return nil
		}
		v, err = readValue(br)
		found = err == nil
		return err
	})
	if err != nil {
		return nil, false
	}
	return v, found
}

// Put implements cache.Store; a network failure is a silent no-op (the
// value stays cached wherever it was computed).
func (c *Client) Put(k cache.Key, v []byte) {
	if len(v) > maxValueLen {
		return
	}
	req := make([]byte, 0, 1+len(k)+4+len(v))
	req = append(req, opPut)
	req = append(req, k[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
	req = append(req, n[:]...)
	req = append(req, v...)
	c.roundTrip(req, func(br *bufio.Reader) error {
		_, err := br.ReadByte()
		return err
	})
}

// Stats implements cache.Store with the remote store's counters; a network
// failure returns the zero Stats.
func (c *Client) Stats() cache.Stats {
	var st cache.Stats
	c.roundTrip([]byte{opStats}, func(br *bufio.Reader) error {
		var buf [32]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return err
		}
		st.Hits = int64(binary.LittleEndian.Uint64(buf[0:]))
		st.Misses = int64(binary.LittleEndian.Uint64(buf[8:]))
		st.Entries = int(binary.LittleEndian.Uint64(buf[16:]))
		st.Capacity = int(binary.LittleEndian.Uint64(buf[24:]))
		return nil
	})
	return st
}
