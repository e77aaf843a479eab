package info

// Blocks returns how many ids are held.
func (s *Store) Blocks() int { return len(s.refs) - len(s.free) }
