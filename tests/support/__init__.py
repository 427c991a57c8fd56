"""Reference implementations the tests compare ``src/`` against."""
