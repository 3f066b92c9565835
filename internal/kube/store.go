package kube

import (
	"fmt"
	"slices"
	"strings"

	"transparentedge/internal/sim"
)

// object is what the store needs from an API kind; T is the kind's pointer
// type (*Pod, *Service, ...).
type object[T any] interface {
	comparable
	// meta exposes the object's name and its ResourceVersion field.
	meta() (name string, version *uint64)
	// clone returns a deep copy.
	clone() T
}

func nameOf[T object[T]](obj T) string {
	name, _ := obj.meta()
	return name
}

// nameList is a name-ordered list of snapshots. Views handed to readers stay
// valid forever: the first write after a view copies the backing array
// (copy-on-write), so a reader may sleep or delete mid-iteration.
type nameList[T object[T]] struct {
	items  []T
	shared bool // a reader holds items; the next write must copy first
}

// view returns the list as a read-only, name-ordered slice.
func (l *nameList[T]) view() []T {
	if l == nil || len(l.items) == 0 {
		return nil
	}
	l.shared = true
	return l.items[:len(l.items):len(l.items)]
}

func (l *nameList[T]) find(name string) (int, bool) {
	return slices.BinarySearchFunc(l.items, name, func(obj T, name string) int {
		return strings.Compare(nameOf(obj), name)
	})
}

// own makes items private to the list again before a write.
func (l *nameList[T]) own() {
	if l.shared {
		l.items = append(make([]T, 0, len(l.items)+1), l.items...)
		l.shared = false
	}
}

// put inserts obj, or replaces the snapshot of the same name.
func (l *nameList[T]) put(obj T) {
	i, found := l.find(nameOf(obj))
	l.own()
	if found {
		l.items[i] = obj
	} else {
		l.items = slices.Insert(l.items, i, obj)
	}
}

func (l *nameList[T]) remove(name string) {
	if i, found := l.find(name); found {
		l.own()
		l.items = slices.Delete(l.items, i, i+1)
	}
}

// index files snapshots under a secondary key, name-ordered per key.
type index[K comparable, T object[T]] map[K]*nameList[T]

func (ix index[K, T]) put(key K, obj T) {
	l := ix[key]
	if l == nil {
		l = &nameList[T]{}
		ix[key] = l
	}
	l.put(obj)
}

// remove unfiles name from key, dropping the bucket once it is empty so a
// churned store does not accumulate dead keys.
func (ix index[K, T]) remove(key K, name string) {
	if l := ix[key]; l != nil {
		if l.remove(name); len(l.items) == 0 {
			delete(ix, key)
		}
	}
}

// Store holds one kind's objects as immutable snapshots: a write copies the
// caller's object in and replaces the stored pointer, so the pointers handed
// out by lists and watch events never change under their readers. Every
// operation charges the API server's RequestLatency to p (nil charges
// nothing: the caller is a continuation that charges its own steps).
type Store[T object[T]] struct {
	api    *APIServer
	kind   Kind
	byName map[string]T
	sorted nameList[T]
	// admit, if set, completes a new object on the store's copy before its
	// name is checked (a pod's generated name and default phase), so no
	// create of the kind skips it.
	admit func(T)
	// reindex, if set, keeps the kind's secondary indexes current; old is
	// the zero T on create and cur the zero T on delete.
	reindex func(old, cur T)
}

// Reader is the read side of a Store, the handle of a kind that only the API
// server writes (Nodes: UpsertNode and the node controller).
type Reader[T any] interface {
	Get(p *sim.Proc, name string) (T, error)
	List(p *sim.Proc) []T
}

func newStore[T object[T]](api *APIServer, kind Kind, reindex func(old, cur T)) *Store[T] {
	return &Store[T]{api: api, kind: kind, byName: make(map[string]T), reindex: reindex}
}

func (s *Store[T]) errorf(err error, name string) error {
	return fmt.Errorf("%w: %s %s", err, strings.ToLower(string(s.kind)), name)
}

// put stores snap (which the store now owns) under a fresh ResourceVersion
// and publishes ev for it.
func (s *Store[T]) put(snap T, ev EventType) {
	name, version := snap.meta()
	*version = s.api.bump()
	old := s.byName[name]
	s.byName[name] = snap
	s.sorted.put(snap)
	if s.reindex != nil {
		s.reindex(old, snap)
	}
	s.api.publish(Event{Type: ev, Kind: s.kind, Name: name, Object: snap})
}

// Create stores a copy of obj as a new object.
func (s *Store[T]) Create(p *sim.Proc, obj T) error {
	_, err := s.insert(p, obj.clone())
	return err
}

// insert stores snap, a copy the store now owns, as a new object. The caller
// makes the copy: a clone called through T's methods makes the caller's
// object escape to the heap, which CreatePod's concrete (*Pod).clone does not.
func (s *Store[T]) insert(p *sim.Proc, snap T) (T, error) {
	s.api.charge(p)
	if s.admit != nil {
		s.admit(snap)
	}
	name := nameOf(snap)
	if _, dup := s.byName[name]; dup {
		var none T
		return none, s.errorf(ErrAlreadyExists, name)
	}
	s.put(snap, Added)
	return snap, nil
}

// Get returns a private, mutable copy of the named object.
func (s *Store[T]) Get(p *sim.Proc, name string) (T, error) {
	s.api.charge(p)
	obj, ok := s.byName[name]
	if !ok {
		return obj, s.errorf(ErrNotFound, name)
	}
	return obj.clone(), nil
}

// Update replaces the object of obj's name with a copy of obj.
func (s *Store[T]) Update(p *sim.Proc, obj T) error {
	s.api.charge(p)
	name := nameOf(obj)
	if _, ok := s.byName[name]; !ok {
		return s.errorf(ErrNotFound, name)
	}
	s.put(obj.clone(), Modified)
	return nil
}

// Delete removes the named object.
func (s *Store[T]) Delete(p *sim.Proc, name string) error {
	s.api.charge(p)
	old, ok := s.byName[name]
	if !ok {
		return s.errorf(ErrNotFound, name)
	}
	delete(s.byName, name)
	s.sorted.remove(name)
	if s.reindex != nil {
		var none T
		s.reindex(old, none)
	}
	s.api.publish(Event{Type: Deleted, Kind: s.kind, Name: name, Object: old})
	return nil
}

// List returns every object, sorted by name, as read-only snapshots (Get for
// a mutable copy).
func (s *Store[T]) List(p *sim.Proc) []T {
	s.api.charge(p)
	return s.sorted.view()
}

// keyed returns a reindex hook that files each snapshot in ix under key(obj).
func keyed[K comparable, T object[T]](ix index[K, T], key func(T) K) func(old, cur T) {
	var none T
	return func(old, cur T) {
		if old != none && (cur == none || key(cur) != key(old)) {
			ix.remove(key(old), nameOf(old))
		}
		if cur != none {
			ix.put(key(cur), cur)
		}
	}
}
