package fleet

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"r3dla/internal/faultinject"
)

// newTransport builds the Remote's default transport with every limit
// pinned explicitly. http.DefaultClient's zero values mean no dial
// timeout, no TLS handshake cap, no response-header deadline and two
// idle connections per host — exactly the unbounded behaviors a fleet
// client must not inherit: one unresponsive backend would pin goroutines
// forever instead of failing fast into the retry path.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: 10 * time.Second,
		// Sweeps fan many concurrent cells at few hosts: the default 2
		// idle conns per host would churn through ephemeral ports.
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		// Generous on purpose: non-streaming endpoints (experiments) do
		// their full simulation before the header. This bounds a *dead*
		// backend, not a slow one; the caller's context bounds totals.
		ResponseHeaderTimeout: 5 * time.Minute,
		ExpectContinueTimeout: 1 * time.Second,
	}
}

// faultTransport wraps a RoundTripper with the plane's network fault
// points: connect errors and latency spikes before the round trip,
// mid-stream body cuts and first-byte stalls after it.
type faultTransport struct {
	base  http.RoundTripper
	plane *faultinject.Plane
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	o := t.plane.At(faultinject.RemoteConnect)
	if o.Delay > 0 {
		timer := time.NewTimer(o.Delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if o.Err != nil {
		return nil, o.Err
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	so := t.plane.At(faultinject.RemoteStream)
	if so.Delay > 0 {
		timer := time.NewTimer(so.Delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			resp.Body.Close()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if so.Drop {
		// The body dies after DropBytes — the reader sees a mid-stream
		// error, which the Remote classifies as retryable ErrUnavailable.
		resp.Body = &cutBody{rc: resp.Body, remain: so.DropBytes}
	}
	return resp, nil
}

// cutBody passes through remain bytes, then fails every further read.
type cutBody struct {
	rc     io.ReadCloser
	remain int64
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		return 0, fmt.Errorf("%w: stream cut", faultinject.ErrInjected)
	}
	if int64(len(p)) > c.remain {
		p = p[:c.remain]
	}
	n, err := c.rc.Read(p)
	c.remain -= int64(n)
	if err == nil && c.remain <= 0 {
		err = fmt.Errorf("%w: stream cut", faultinject.ErrInjected)
	}
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }
