// Package registry models container image registries (Docker Hub, GCR, and
// an in-network private registry) and the client side of the pull protocol.
//
// An image is a manifest plus content-addressed layers. Pull time is
// composed exactly of the factors the paper's fig. 13 discusses: a manifest
// round trip (auth/token handshake folded into a per-request service
// latency), per-layer blob requests with registry-side service latency,
// layer transfer over the shared network links (bandwidth fair-shared with
// other traffic), and local verification/extraction proportional to layer
// size. Layers already present locally are skipped, which reproduces the
// paper's observation that popular base layers shared with cached images
// shorten subsequent pulls.
package registry

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// Port is the registry service port.
const Port = 443

// Layer is one content-addressed image layer.
type Layer struct {
	Digest string
	Size   simnet.Bytes
}

// Image is a named (ref) container image: an ordered list of layers.
type Image struct {
	// Ref is the full image reference, e.g. "nginx:1.23.2" or
	// "gcr.io/tensorflow-serving/resnet".
	Ref    string
	Layers []Layer
}

// TotalSize returns the sum of all layer sizes.
func (img Image) TotalSize() simnet.Bytes {
	var s simnet.Bytes
	for _, l := range img.Layers {
		s += l.Size
	}
	return s
}

// Manifest is what a manifest request returns: the layer list.
type Manifest struct {
	Ref    string
	Layers []Layer
}

// Errors returned by pulls.
var (
	ErrUnknownImage    = errors.New("registry: unknown image")
	ErrUnknownBlob     = errors.New("registry: unknown blob")
	ErrUnknownRegistry = errors.New("registry: no registry for image reference")
)

// ServerConfig models registry-side service characteristics.
type ServerConfig struct {
	// ManifestLatency is the server-side latency of a manifest request
	// (covers auth token round trips and manifest assembly).
	ManifestLatency time.Duration
	// BlobLatency is the server-side latency before a blob transfer starts
	// (TLS, redirect to blob storage).
	BlobLatency time.Duration
}

// Server is a registry service running on a simnet host.
type Server struct {
	cfg    ServerConfig
	images map[string]Image
	blobs  map[string]Layer
	// Pulls counts blob requests per digest (diagnostics).
	Pulls map[string]int
}

// NewServer installs a registry service on h.
func NewServer(h *simnet.Host, cfg ServerConfig) *Server {
	s := &Server{
		cfg:    cfg,
		images: make(map[string]Image),
		blobs:  make(map[string]Layer),
		Pulls:  make(map[string]int),
	}
	h.ServeHTTPAsync(Port, s.handle)
	return s
}

// Add publishes an image (and its layers) to the registry.
func (s *Server) Add(img Image) {
	s.images[img.Ref] = img
	for _, l := range img.Layers {
		s.blobs[l.Digest] = l
	}
}

// handle answers one request after its service latency.
func (s *Server) handle(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
	switch {
	case strings.HasPrefix(req.Path, "/v2/manifests/"):
		ref := strings.TrimPrefix(req.Path, "/v2/manifests/")
		img, ok := s.images[ref]
		if !ok {
			c.Respond(&simnet.HTTPResponse{Status: 404})
			return
		}
		c.RespondAfter(s.cfg.ManifestLatency, &simnet.HTTPResponse{
			Status: 200,
			Size:   4 * simnet.KiB,
			Body:   &Manifest{Ref: img.Ref, Layers: append([]Layer(nil), img.Layers...)},
		})
	case strings.HasPrefix(req.Path, "/v2/blobs/"):
		digest := strings.TrimPrefix(req.Path, "/v2/blobs/")
		l, ok := s.blobs[digest]
		if !ok {
			c.Respond(&simnet.HTTPResponse{Status: 404})
			return
		}
		s.Pulls[digest]++
		c.RespondAfter(s.cfg.BlobLatency, &simnet.HTTPResponse{Status: 200, Size: l.Size, Body: l})
	default:
		c.Respond(&simnet.HTTPResponse{Status: 400})
	}
}

// Resolver maps image references to the registry host serving them, the way
// a container runtime resolves "nginx:..." to Docker Hub and
// "gcr.io/..." to GCR. Longest matching prefix wins; the empty prefix is
// the default registry.
type Resolver struct {
	prefixes map[string]simnet.Addr
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{prefixes: make(map[string]simnet.Addr)}
}

// AddPrefix routes image refs starting with prefix to the registry at addr.
func (r *Resolver) AddPrefix(prefix string, addr simnet.Addr) {
	r.prefixes[prefix] = addr
}

// Resolve returns the registry address for ref.
func (r *Resolver) Resolve(ref string) (simnet.Addr, error) {
	best := ""
	found := false
	var addr simnet.Addr
	for p, a := range r.prefixes {
		if strings.HasPrefix(ref, p) && (len(p) > len(best) || !found) {
			if len(p) >= len(best) {
				best, addr, found = p, a, true
			}
		}
	}
	if !found {
		return "", fmt.Errorf("%w: %q", ErrUnknownRegistry, ref)
	}
	return addr, nil
}

// The pulling side's calibration: containerd defaults on server-class
// hardware.
const (
	// maxDownloads caps parallel blob downloads per pull (the containerd
	// and docker default).
	maxDownloads = 3
	// unpackRate is the local layer verification and extraction
	// throughput, ~300 MB/s sequential.
	unpackRate = 2400 * simnet.Mbps
	// unpackPerLayer is a fixed per-layer unpack overhead.
	unpackPerLayer = 15 * time.Millisecond
	// requestTimeout bounds each registry request (manifest or blob): an
	// unreachable registry fails the pull instead of hanging the deployment
	// forever.
	requestTimeout = 90 * time.Second
)

// pullTiming is one client's copy of the calibration, which the package's
// tests sweep.
type pullTiming struct {
	downloads      int
	unpackRate     simnet.BitsPerSec
	unpackPerLayer time.Duration
	timeout        time.Duration
}

var calibrated = pullTiming{maxDownloads, unpackRate, unpackPerLayer, requestTimeout}

// Client pulls images onto one node, deduplicating layers via a local
// content store shared by every runtime on the node (the paper's EGS runs
// Docker and Kubernetes over the same containerd).
type Client struct {
	host     *simnet.Host
	resolver *Resolver
	t        pullTiming
	layers   map[string]bool // digest -> present
	images   map[string]Image
}

// NewClient returns a pull client for the given host.
func NewClient(h *simnet.Host, r *Resolver) *Client {
	return &Client{
		host:     h,
		resolver: r,
		t:        calibrated,
		layers:   make(map[string]bool),
		images:   make(map[string]Image),
	}
}

// HasImage reports whether ref has been fully pulled (manifest and all
// layers present).
func (c *Client) HasImage(ref string) bool {
	img, ok := c.images[ref]
	if !ok {
		return false
	}
	for _, l := range img.Layers {
		if !c.layers[l.Digest] {
			return false
		}
	}
	return true
}

// HasLayer reports whether a layer digest is in the local content store.
func (c *Client) HasLayer(digest string) bool { return c.layers[digest] }

// RemoveImage drops the manifest and any layers not referenced by another
// cached image (the optional Delete phase of fig. 4).
func (c *Client) RemoveImage(ref string) {
	img, ok := c.images[ref]
	if !ok {
		return
	}
	delete(c.images, ref)
	for _, l := range img.Layers {
		referenced := false
		for _, other := range c.images {
			for _, ol := range other.Layers {
				if ol.Digest == l.Digest {
					referenced = true
				}
			}
		}
		if !referenced {
			delete(c.layers, l.Digest)
		}
	}
}

// Pull is PullAsync for a caller that is a sim process: it blocks p until the
// pull is done.
func (c *Client) Pull(p *sim.Proc, ref string) error {
	pr := sim.NewPromise[struct{}](c.host.Network().K)
	c.PullAsync(ref, pr.Fail) // Fail(nil) resolves
	_, err := pr.Await(p)
	return err
}

// PullAsync fetches ref — the manifest, then the missing layers over
// t.downloads slots, each downloading and unpacking one layer at a time — and
// calls done in the event that ends the pull, or at once when no registry
// serves ref. Concurrent pulls contend on the links. The zero-delay hops
// (Defer) keep each step where a pull's processes ran it, so a pull costs
// the events it did: the caller woke one hop after the manifest, each
// download worker started one hop after that, and a worker woke one hop after
// its blob.
func (c *Client) PullAsync(ref string, done func(error)) {
	addr, err := c.resolver.Resolve(ref)
	if err != nil {
		done(err)
		return
	}
	req := &simnet.HTTPRequest{Method: "GET", Path: "/v2/manifests/" + ref, Size: 1 * simnet.KiB}
	c.host.HTTPGetAsync(addr, Port, req, c.t.timeout, func(res *simnet.HTTPResult, err error) {
		switch {
		case err != nil:
			done(fmt.Errorf("registry: manifest %s: %w", ref, err))
		case res.Resp.Status != 200:
			done(fmt.Errorf("%w: %q", ErrUnknownImage, ref))
		default:
			pl := &pull{c: c, addr: addr, ref: ref, man: res.Resp.Body.(*Manifest), open: c.t.downloads, done: done}
			c.host.Network().K.Defer(pl.start)
		}
	})
}

// pull is one PullAsync past its manifest: the missing layers, which its
// download slots take in order.
type pull struct {
	c       *Client
	addr    simnet.Addr
	ref     string
	man     *Manifest
	missing []Layer
	open    int // slots still running
	err     error
	done    func(error)
}

// start starts the slots on the layers missing now.
func (pl *pull) start() {
	for _, l := range pl.man.Layers {
		if !pl.c.layers[l.Digest] {
			pl.missing = append(pl.missing, l)
		}
	}
	k, take := pl.c.host.Network().K, pl.take
	for range pl.open {
		k.Defer(take)
	}
}

// take has a slot download the next missing layer and unpack it (serialized
// per slot), then take the next; a slot with none left, or whose download
// failed, closes.
func (pl *pull) take() {
	if len(pl.missing) == 0 {
		pl.close(nil)
		return
	}
	l, t, k := pl.missing[0], pl.c.t, pl.c.host.Network().K
	pl.missing = pl.missing[1:]
	req := &simnet.HTTPRequest{Method: "GET", Path: "/v2/blobs/" + l.Digest, Size: 512}
	pl.c.host.HTTPGetAsync(pl.addr, Port, req, t.timeout, func(res *simnet.HTTPResult, err error) {
		if err == nil && res.Resp.Status != 200 {
			err = fmt.Errorf("%w: %s", ErrUnknownBlob, l.Digest)
		}
		k.Defer(func() {
			if err != nil {
				pl.close(err)
				return
			}
			unpack := t.unpackPerLayer
			if t.unpackRate > 0 {
				unpack += time.Duration(float64(l.Size*8) / float64(t.unpackRate) * float64(time.Second))
			}
			k.AfterFree(unpack, func() {
				pl.c.layers[l.Digest] = true
				pl.take()
			})
		})
	})
}

// close ends one slot. The last one records the image unless a download
// failed, and ends the pull with the first error.
func (pl *pull) close(err error) {
	if pl.err == nil {
		pl.err = err
	}
	if pl.open--; pl.open > 0 {
		return
	}
	if pl.err == nil {
		pl.c.images[pl.ref] = Image{Ref: pl.man.Ref, Layers: pl.man.Layers}
	}
	pl.done(pl.err)
}
