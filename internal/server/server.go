// Package server exposes a catalog of temporal relations over TCP with a
// line-oriented protocol: the client sends one query per line, the server
// answers with one JSON object per line:
//
//	→ SELECT COUNT(Name) FROM Employed
//	← {"ok":true,"result":{"query":...,"plan":...,"groups":[...]}}
//	→ SELECT BOGUS
//	← {"ok":false,"error":"query: ..."}
//
// Connections are served concurrently; the catalog is read-only while
// serving, and each query streams from its relation file independently.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"tempagg/internal/catalog"
	"tempagg/internal/obs"
	"tempagg/internal/query"
	"tempagg/internal/relation"
)

// MaxQueryBytes bounds a single query line.
const MaxQueryBytes = 1 << 16

// Response is the per-query reply envelope.
type Response struct {
	OK     bool               `json:"ok"`
	Error  string             `json:"error,omitempty"`
	Result *query.QueryResult `json:"result,omitempty"`
}

// Server serves queries against one catalog.
type Server struct {
	cat *catalog.Catalog
	obs *obs.Observer

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Option configures a Server at construction.
type Option func(*Server)

// WithObserver attaches an observer: every query the server executes is
// traced and counted on it, and AdminMux can expose it over HTTP.
func WithObserver(o *obs.Observer) Option {
	return func(s *Server) { s.obs = o }
}

// New returns a server over the catalog.
func New(cat *catalog.Catalog, opts ...Option) *Server {
	s := &Server{cat: cat, conns: map[net.Conn]struct{}{}}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Observer returns the attached observer, nil when none.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Serve accepts connections on lis until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxQueryBytes)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "quit") {
			return
		}
		resp := s.execute(line)
		if err := enc.Encode(resp); err != nil {
			return // client went away
		}
	}
}

func (s *Server) execute(sql string) Response {
	// INGEST is a protocol command, not SQL: intercept it before parsing.
	if first, rest, _ := strings.Cut(sql, " "); strings.EqualFold(first, "INGEST") {
		return s.executeIngest(rest)
	}
	qr, err := s.cat.QueryObserved(sql, relation.ScanOptions{}, s.obs)
	if err != nil {
		return Response{OK: false, Error: err.Error()}
	}
	return Response{OK: true, Result: qr}
}

// Client is a minimal synchronous client for the line protocol. Reply lines
// have no length cap: a whole-history result can run to tens of megabytes.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Query sends one query and decodes the reply. Protocol or I/O failures
// return an error; a server-side query error comes back in Response.Error.
func (c *Client) Query(sql string) (Response, error) {
	line, err := c.QueryRaw(sql)
	if err != nil {
		return Response{}, err
	}
	// The result decodes into generic JSON on the client side; callers
	// needing typed access use the Raw field of the decoded envelope.
	var resp rawResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("server: bad reply: %w", err)
	}
	return Response{OK: resp.OK, Error: resp.Error}, nil
}

// QueryRaw sends one query and returns the raw JSON reply line.
func (c *Client) QueryRaw(sql string) ([]byte, error) {
	if strings.ContainsAny(sql, "\n\r") {
		return nil, errors.New("server: query must be a single line")
	}
	if _, err := fmt.Fprintln(c.conn, sql); err != nil {
		return nil, fmt.Errorf("server: send: %w", err)
	}
	line, err := c.r.ReadBytes('\n')
	switch {
	case err == io.EOF:
		return nil, errors.New("server: connection closed")
	case err != nil:
		return nil, fmt.Errorf("server: receive: %w", err)
	}
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), nil
}

// Close terminates the session.
func (c *Client) Close() error {
	fmt.Fprintln(c.conn, "quit")
	return c.conn.Close()
}

// rawResponse decodes the envelope without re-typing the result.
type rawResponse struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Raw   json.RawMessage `json:"result,omitempty"`
}
