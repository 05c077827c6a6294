package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// networkFixtures returns a constructor per Network implementation; every
// contract test in this file runs against each of them.
func networkFixtures(t *testing.T) map[string]func(t *testing.T) Network {
	t.Helper()
	return map[string]func(t *testing.T) Network{
		"inmemory": func(t *testing.T) Network {
			n := NewInMemory()
			t.Cleanup(func() { _ = n.Close() })
			return n
		},
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSendRecvRoundTrip(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			a, err := net.Join("alice")
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Join("bob")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send("bob", "greet", []byte("hello")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			msg, err := b.Recv(testCtx(t))
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if msg.From != "alice" || msg.To != "bob" || msg.Kind != "greet" || string(msg.Payload) != "hello" {
				t.Fatalf("got %+v", msg)
			}
		})
	}
}

func TestMessageOrderingPerSender(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			a, _ := net.Join("a")
			b, _ := net.Join("b")
			const n = 50
			for i := 0; i < n; i++ {
				if err := a.Send("b", "seq", []byte{byte(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			ctx := testCtx(t)
			for i := 0; i < n; i++ {
				msg, err := b.Recv(ctx)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if msg.Payload[0] != byte(i) {
					t.Fatalf("message %d arrived out of order (got %d)", i, msg.Payload[0])
				}
			}
		})
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			if _, err := net.Join("dup"); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Join("dup"); err == nil {
				t.Fatal("duplicate join accepted")
			}
		})
	}
}

func TestEmptyNameRejected(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			if _, err := net.Join(""); !errors.Is(err, ErrEmptyName) {
				t.Fatalf("error = %v, want ErrEmptyName", err)
			}
		})
	}
}

func TestRecvContextCancellation(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			c, _ := net.Join("lonely")
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := c.Recv(ctx)
				done <- err
			}()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Recv error = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock on cancellation")
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			c, _ := net.Join("x")
			if _, err := net.Join("y"); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Send("y", "k", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestRecvDrainsAfterClose(t *testing.T) {
	// Delivery then close must still hand over the queued message.
	net := NewInMemory()
	defer func() { _ = net.Close() }()
	a, _ := net.Join("a")
	b, _ := net.Join("b")
	if err := a.Send("b", "k", []byte("queued")); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	msg, err := b.Recv(testCtx(t))
	if err != nil {
		t.Fatalf("Recv after close with queued message: %v", err)
	}
	if string(msg.Payload) != "queued" {
		t.Fatalf("got %q", msg.Payload)
	}
	// Queue now empty: next Recv reports closed.
	if _, err := b.Recv(testCtx(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Recv = %v, want ErrClosed", err)
	}
}

func TestInMemoryUnknownPeer(t *testing.T) {
	net := NewInMemory()
	defer func() { _ = net.Close() }()
	a, _ := net.Join("a")
	if err := a.Send("ghost", "k", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Send to ghost = %v, want ErrUnknownPeer", err)
	}
}

func TestInMemoryQueueFull(t *testing.T) {
	net := NewInMemory()
	defer func() { _ = net.Close() }()
	a, _ := net.Join("a")
	if _, err := net.Join("sink"); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i <= inMemoryQueueSize; i++ {
		if err = a.Send("sink", "k", nil); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("flooding error = %v, want ErrQueueFull", err)
	}
}

func TestInMemoryNetworkCloseUnblocksAll(t *testing.T) {
	net := NewInMemory()
	c, _ := net.Join("n")
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = net.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on network close")
	}
	if _, err := net.Join("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Join after close = %v, want ErrClosed", err)
	}
}

func TestConcurrentSendersStress(t *testing.T) {
	for name, mk := range networkFixtures(t) {
		t.Run(name, func(t *testing.T) {
			net := mk(t)
			sink, err := net.Join("sink")
			if err != nil {
				t.Fatal(err)
			}
			const senders, per = 8, 20
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				conn, err := net.Join(fmt.Sprintf("s%d", s))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(c Conn) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := c.Send("sink", "k", []byte{byte(i)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(conn)
			}
			ctx := testCtx(t)
			got := 0
			for got < senders*per {
				if _, err := sink.Recv(ctx); err != nil {
					t.Fatalf("recv after %d: %v", got, err)
				}
				got++
			}
			wg.Wait()
		})
	}
}
