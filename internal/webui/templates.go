package webui

// Templates for the three pages of the trading platform front end,
// mirroring the paper's Figures 3 (market summary), 4 (two-step bid
// entry), and 5 (preliminary prices during the bid window).

const baseStyle = `<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: right; }
th { background: #eee; }
td.name, th.name { text-align: left; }
.hot { background: #fdd; }
.cold { background: #dfd; }
nav a { margin-right: 1.2em; }
.spark { font-family: monospace; letter-spacing: 1px; }
</style>`

const summaryTmpl = `<!DOCTYPE html>
<html><head><title>Resource Market Summary</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Market summary</h1>
<p>Auctions settled so far: {{.Auctions}}. Open orders: {{.OpenOrders}}.</p>
<table>
<tr><th class="name">Cluster</th><th>Bids</th><th>Offers</th>
<th>CPU price</th><th>RAM price</th><th>Disk price</th>
<th>CPU util</th><th>RAM util</th><th>Disk util</th><th>CPU price history</th></tr>
{{range .Rows}}
<tr class="{{.Class}}"><td class="name">{{.Cluster}}</td><td>{{.Bids}}</td><td>{{.Offers}}</td>
<td>{{printf "%.3f" .Price.CPU}}</td><td>{{printf "%.3f" .Price.RAM}}</td><td>{{printf "%.3f" .Price.Disk}}</td>
<td>{{printf "%.0f%%" (pct .Utilization.CPU)}}</td><td>{{printf "%.0f%%" (pct .Utilization.RAM)}}</td><td>{{printf "%.0f%%" (pct .Utilization.Disk)}}</td>
<td class="spark">{{.Spark}}</td></tr>
{{end}}
</table>
<form method="POST" action="{{.Prefix}}/auction/run"><button type="submit">Run auction now</button></form>
</body></html>`

const bidStep1Tmpl = `<!DOCTYPE html>
<html><head><title>Enter bid — step 1</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Enter bid — step 1: requirements</h1>
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
<form method="POST" action="{{.Prefix}}/bid/preview">
<p>Team: <input name="team" value="{{.Team}}"></p>
<p>Product:
<select name="product">
{{range .Products}}<option value="{{.}}">{{.}}</option>{{end}}
</select></p>
<p>Quantity: <input name="qty" value="1"></p>
<p>Acceptable clusters (XOR, comma separated): <input name="clusters" value="{{.Clusters}}"></p>
<button type="submit">Continue</button>
</form>
</body></html>`

const bidStep2Tmpl = `<!DOCTYPE html>
<html><head><title>Enter bid — step 2</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Enter bid — step 2: covering resources &amp; limit price</h1>
<p>Team <b>{{.Team}}</b> requests <b>{{.Qty}} {{.Unit}}</b> of <b>{{.Product}}</b>.</p>
<p>Covering resources per acceptable cluster:</p>
<table>
<tr><th class="name">Cluster</th><th>CPU</th><th>RAM</th><th>Disk</th><th>Cost at current prices</th></tr>
{{range .Options}}
<tr><td class="name">{{.Cluster}}</td>
<td>{{printf "%.2f" .Cover.CPU}}</td><td>{{printf "%.2f" .Cover.RAM}}</td><td>{{printf "%.2f" .Cover.Disk}}</td>
<td>{{printf "%.2f" .Cost}}</td></tr>
{{end}}
</table>
<form method="POST" action="{{.Prefix}}/bid/submit">
<input type="hidden" name="team" value="{{.Team}}">
<input type="hidden" name="product" value="{{.Product}}">
<input type="hidden" name="qty" value="{{.Qty}}">
<input type="hidden" name="clusters" value="{{.ClustersCSV}}">
<p>Maximum bid price: <input name="limit" value="{{printf "%.2f" .SuggestedLimit}}"></p>
<button type="submit">Submit bid</button>
</form>
</body></html>`

const bidDoneTmpl = `<!DOCTYPE html>
<html><head><title>Bid submitted</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Bid submitted</h1>
<p>Order #{{.ID}} for team <b>{{.Team}}</b> entered with limit {{printf "%.2f" .Limit}}.</p>
<p><a href="{{.Prefix}}/orders">View orders</a></p>
</body></html>`

const ordersTmpl = `<!DOCTYPE html>
<html><head><title>Orders</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Orders</h1>
<table>
<tr><th>ID</th><th class="name">Team</th><th class="name">User</th><th>Limit</th><th class="name">Status</th><th>Auction</th><th>Payment</th></tr>
{{range .Orders}}
<tr><td>{{.ID}}</td><td class="name">{{.Team}}</td><td class="name">{{.User}}</td>
<td>{{printf "%.2f" .MaxLimit}}</td><td class="name">{{.Status}}</td>
<td>{{if ge .Auction 0}}{{.Auction}}{{else}}-{{end}}</td>
<td>{{printf "%.2f" .Payment}}</td></tr>
{{end}}
</table>
</body></html>`

const teamsTmpl = `<!DOCTYPE html>
<html><head><title>Teams</title>` + baseStyle + `</head>
<body>
<nav><a href="{{.Prefix}}/">Market summary</a><a href="{{.Prefix}}/bid">Enter bid</a><a href="{{.Prefix}}/orders">Orders</a><a href="{{.Prefix}}/teams">Teams</a></nav>
<h1>Team accounts</h1>
<table>
<tr><th class="name">Team</th><th>Balance</th></tr>
{{range .Teams}}
<tr><td class="name">{{.Name}}</td><td>{{printf "%.2f" .Balance}}</td></tr>
{{end}}
</table>
</body></html>`
