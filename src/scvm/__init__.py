"""scvm: a deterministic toy-ISA simulator with shadow type/taint state
and pluggable rule checkers (null-check, user-address discipline,
format-string taint, lockset race detection)."""
