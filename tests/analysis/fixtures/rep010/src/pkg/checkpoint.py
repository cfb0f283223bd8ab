"""The checkpoint format the manifest was generated at (REP002 fixture)."""

FORMAT_VERSION = 1
