package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tempagg/internal/catalog"
	"tempagg/internal/relation"
)

// startServer brings up a server on a loopback port over a catalog holding
// the Employed relation.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	if err := relation.WriteFile(filepath.Join(dir, "Employed.rel"), relation.Employed()); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cat)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		// Close may win the race with the goroutine above; Serve then
		// refuses the listener, which it closes.
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

func TestServerQueryRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw, err := c.QueryRaw("SELECT COUNT(Name) FROM Employed")
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		OK     bool `json:"ok"`
		Result struct {
			Groups []struct {
				Results []struct {
					Rows []struct {
						Start int64    `json:"start"`
						End   string   `json:"end"`
						Value *float64 `json:"value"`
					} `json:"rows"`
				} `json:"results"`
			} `json:"groups"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad reply: %v\n%s", err, raw)
	}
	if !resp.OK {
		t.Fatalf("reply not ok: %s", raw)
	}
	rows := resp.Result.Groups[0].Results[0].Rows
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	if rows[4].Start != 18 || *rows[4].Value != 3 {
		t.Fatalf("row 4 = %+v", rows[4])
	}
	if rows[6].End != "forever" {
		t.Fatalf("last row end = %q", rows[6].End)
	}
}

func TestServerQueryError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query("SELECT BOGUS(Name) FROM Employed")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("expected query error, got %+v", resp)
	}
	// The connection survives the error.
	resp, err = c.Query("SELECT COUNT(Name) FROM Employed")
	if err != nil || !resp.OK {
		t.Fatalf("connection broken after error: %+v, %v", resp, err)
	}
}

func TestServerUnknownRelation(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query("SELECT COUNT(Name) FROM Nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "not found") {
		t.Fatalf("reply = %+v", resp)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				resp, err := c.Query("SELECT MAX(Salary) FROM Employed")
				if err != nil {
					errs <- err
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("server error: %s", resp.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The client's connection is gone.
	if _, err := c.Query("SELECT COUNT(Name) FROM Employed"); err == nil {
		t.Fatal("query after close should fail")
	}
	if err := c.Close(); err != nil {
		t.Errorf("client Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
}

// TestServeAfterCloseClosesListener: Serve on a closed server refuses the
// listener and closes it, so a dial the kernel had already accepted ends
// instead of waiting for a reply nobody sends.
func TestServeAfterCloseClosesListener(t *testing.T) {
	srv := New(nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	pending, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pending.Close()
	if err := srv.Serve(lis); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
	// A deadline turns the old hang into a failure instead of a stuck test.
	if err := pending.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := pending.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("read on a connection pending at the refused listener = %v, want EOF or reset", err)
	}
	if c, err := net.Dial("tcp", lis.Addr().String()); err == nil {
		c.Close()
		t.Fatal("dial to the refused listener succeeded")
	}
}

func TestClientRejectsMultilineQuery(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT COUNT(Name)\nFROM Employed"); err == nil {
		t.Fatal("multiline query must be rejected client-side")
	}
	if _, err := c.QueryRaw("a\rb"); err == nil {
		t.Fatal("carriage return must be rejected client-side")
	}
}

// TestClientReadsReplyBeyond16MiB: a reply line has no size cap — a
// whole-history result over a large relation runs past 16 MiB.
func TestClientReadsReplyBeyond16MiB(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	reply := []byte(`{"ok":true,"result":"` + strings.Repeat("x", 17<<20) + `"}`)
	served := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			served <- err
			return
		}
		_, err = conn.Write(append(reply, '\n'))
		served <- err
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.QueryRaw("SELECT COUNT(Name) FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("reply of %d bytes came back as %d bytes", len(reply), len(got))
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
