"""CON005 fixture: a drop-in catalog whose reference class is gone.

The seam manifest pairs ``ShardedMetadataServer`` with the flat
``MetadataServer`` in ``catalog/server.py``; that file is absent from
this tree, so the seam reports its missing counterpart.
"""


class ShardedMetadataServer:
    def search(self, tokens, now, limit=None):
        return []
