"""Block-storage substrate: pages, devices, and page files.

The bottom of the memory hierarchy. Disk-based engines page between
here and the buffer pool (Sec 3.1 contrasts this path with CXL memory
expansion).
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "StorageDevice": "disk",
    "PageFile": "file",
    "INVALID_PAGE_ID": "page",
    "Page": "page",
    "PageId": "page",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
