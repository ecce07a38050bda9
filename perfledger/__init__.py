"""The repo's one performance benchmark (see README.md beside this file)."""
