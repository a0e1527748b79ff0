package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock drives the limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testLimiter(rate, burst float64) (*limiter, *fakeClock) {
	l := newLimiter(rate, burst)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now
	return l, clk
}

func TestLimiterNilAdmitsAll(t *testing.T) {
	var l *limiter
	if l != newLimiter(0, 5) {
		t.Error("rate 0 should build a nil (admit-all) limiter")
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.allow("x"); !ok {
			t.Fatal("nil limiter refused")
		}
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	l, clk := testLimiter(2, 3) // 2/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.allow("a")
	if ok {
		t.Fatal("4th immediate request admitted past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retryAfter = %v, want (0, 500ms]-ish at 2/s", retry)
	}

	// Half a second refills one token at 2/s.
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Error("refilled token refused")
	}
	if ok, _ := l.allow("a"); ok {
		t.Error("second token admitted after refilling only one")
	}

	// Refill never exceeds burst.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("post-idle burst request %d refused", i)
		}
	}
	if ok, _ := l.allow("a"); ok {
		t.Error("idle refill exceeded burst capacity")
	}
}

func TestLimiterKeysIndependent(t *testing.T) {
	l, _ := testLimiter(1, 1)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("a refused")
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("a admitted past burst")
	}
	if ok, _ := l.allow("b"); !ok {
		t.Error("b shares a's bucket")
	}
}

// TestLimiterBounded: cycling through more keys than maxBuckets (an
// attacker spoofing API keys) must not grow the map without bound —
// idle-full buckets are swept on insert.
func TestLimiterBounded(t *testing.T) {
	l, clk := testLimiter(10, 2)
	for i := 0; i < 3*maxBuckets; i++ {
		// Step the clock so earlier buckets refill and become sweepable.
		clk.advance(time.Second)
		l.allow(fmt.Sprintf("key-%d", i))
	}
	if n := len(l.buckets); n > maxBuckets+1 {
		t.Errorf("bucket map grew to %d, want <= %d", n, maxBuckets+1)
	}
	// Sweeping must not forget active debt: a key that just spent its
	// burst stays refused across a sweep-heavy run.
	key := "debtor"
	l.allow(key)
	l.allow(key)
	if ok, _ := l.allow(key); ok {
		t.Error("debtor admitted past burst")
	}
}

// TestClientKey: the API key wins over the address; otherwise the
// remote host keys the client, port stripped (IPv6 brackets too), and
// an address without a port is used as is.
func TestClientKey(t *testing.T) {
	cases := []struct {
		name, remote, apiKey, want string
	}{
		{"api key", "10.0.0.1:5000", "tenant-a", "key:tenant-a"},
		{"ipv4", "10.0.0.1:5000", "", "addr:10.0.0.1"},
		{"ipv6", "[2001:db8::1]:443", "", "addr:2001:db8::1"},
		{"no port", "10.0.0.1", "", "addr:10.0.0.1"},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize", nil)
		r.RemoteAddr = c.remote
		if c.apiKey != "" {
			r.Header.Set("X-API-Key", c.apiKey)
		}
		if got := clientKey(r); got != c.want {
			t.Errorf("%s: clientKey(%q) = %q, want %q", c.name, c.remote, got, c.want)
		}
	}
}
