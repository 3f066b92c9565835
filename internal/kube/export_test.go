package kube

// ObservePublishes calls fn with every snapshot a store of a publishes — on
// every create and update — inside the write, after the
// store's own indexes are current. The external tests use it to watch the
// snapshots from the moment they are shared.
func ObservePublishes(a *APIServer, fn func(snap any)) {
	observe(a.Deployments, fn)
	observe(a.ReplicaSets, fn)
	observe(a.Pods, fn)
	observe(a.Services, fn)
}

func observe[T object[T]](s *Store[T], fn func(any)) {
	prev := s.reindex
	var none T
	s.reindex = func(old, cur T) {
		if prev != nil {
			prev(old, cur)
		}
		if cur != none {
			fn(cur)
		}
	}
}
