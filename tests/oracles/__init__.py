"""Reference implementations kept only for differential tests."""
