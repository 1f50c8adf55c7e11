"""`python -m bore_lab`: the bore-lab command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
